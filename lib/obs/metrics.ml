module Stats = Hypertee_util.Stats

(* Instruments are domain-safe: counters and gauges live on [Atomic]
   cells (lock-free, safe to bump from any domain), while
   histograms — whose [Stats] reservoir is a compound structure —
   take a per-histogram mutex on [observe]. The registry table itself
   is mutex-guarded so concurrent get-or-create cannot register two
   instruments under one name. *)
type counter = int Atomic.t
type gauge = float Atomic.t
type histogram = { stats : Stats.t; h_lock : Mutex.t }

type instrument = Counter of counter | Gauge of gauge | Histogram of histogram

type entry = { instrument : instrument; help : string }

type t = { table : (string, entry) Hashtbl.t; lock : Mutex.t }

let create () = { table = Hashtbl.create 64; lock = Mutex.create () }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

(* Get-or-create by name; a kind collision is a programming error. *)
let find_or_add t name ~help ~make ~cast =
  Mutex.protect t.lock @@ fun () ->
  match Hashtbl.find_opt t.table name with
  | Some entry -> (
    match cast entry.instrument with
    | Some v -> v
    | None ->
      invalid_arg
        (Printf.sprintf "Metrics: %S already registered as a %s" name
           (kind_name entry.instrument)))
  | None ->
    let v, instrument = make () in
    Hashtbl.replace t.table name { instrument; help };
    v

let counter t ?(help = "") name =
  find_or_add t name ~help
    ~make:(fun () ->
      let c = Atomic.make 0 in
      (c, Counter c))
    ~cast:(function Counter c -> Some c | _ -> None)

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c by)
let set_counter c v = Atomic.set c v
let counter_value c = Atomic.get c

let gauge t ?(help = "") name =
  find_or_add t name ~help
    ~make:(fun () ->
      let g = Atomic.make 0.0 in
      (g, Gauge g))
    ~cast:(function Gauge g -> Some g | _ -> None)

let set_gauge g v = Atomic.set g v
let gauge_value g = Atomic.get g

let histogram t ?(help = "") name =
  find_or_add t name ~help
    ~make:(fun () ->
      let h = { stats = Stats.create (); h_lock = Mutex.create () } in
      (h, Histogram h))
    ~cast:(function Histogram h -> Some h | _ -> None)

let observe h v = Mutex.protect h.h_lock (fun () -> Stats.add h.stats v)
let histogram_count h = Mutex.protect h.h_lock (fun () -> Stats.count h.stats)
let percentile h p = Mutex.protect h.h_lock (fun () -> Stats.percentile h.stats p)
let histogram_mean h = Mutex.protect h.h_lock (fun () -> Stats.mean h.stats)

let names t =
  Mutex.protect t.lock @@ fun () ->
  Hashtbl.fold (fun name _ acc -> name :: acc) t.table [] |> List.sort compare

let find_entry t name = Mutex.protect t.lock (fun () -> Hashtbl.find t.table name)

let headers = [ "metric"; "kind"; "count"; "value"; "p50"; "p99"; "help" ]

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.3f" v

let rows t =
  List.map
    (fun name ->
      let entry = find_entry t name in
      let kind = kind_name entry.instrument in
      let count, value, p50, p99 =
        match entry.instrument with
        | Counter c -> ("-", string_of_int (Atomic.get c), "-", "-")
        | Gauge g -> ("-", fmt_value (Atomic.get g), "-", "-")
        | Histogram h ->
          Mutex.protect h.h_lock @@ fun () ->
          let n = Stats.count h.stats in
          if n = 0 then (string_of_int n, "-", "-", "-")
          else
            ( string_of_int n,
              fmt_value (Stats.mean h.stats),
              fmt_value (Stats.percentile h.stats 50.0),
              fmt_value (Stats.percentile h.stats 99.0) )
      in
      [ name; kind; count; value; p50; p99; entry.help ])
    (names t)

let render t = Hypertee_util.Table.render ~headers
    ~aligns:Hypertee_util.Table.[ Left; Left; Right; Right; Right; Right; Left ]
    (rows t)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  let all = names t in
  let n = List.length all in
  List.iteri
    (fun i name ->
      let entry = find_entry t name in
      Buffer.add_string b (Printf.sprintf "  \"%s\": " (json_escape name));
      (match entry.instrument with
      | Counter c -> Buffer.add_string b (string_of_int (Atomic.get c))
      | Gauge g -> Buffer.add_string b (Printf.sprintf "%.6g" (Atomic.get g))
      | Histogram h ->
        Mutex.protect h.h_lock @@ fun () ->
        let count = Stats.count h.stats in
        if count = 0 then Buffer.add_string b "{\"count\": 0}"
        else
          Buffer.add_string b
            (Printf.sprintf
               "{\"count\": %d, \"mean\": %.6g, \"min\": %.6g, \"max\": %.6g, \"p50\": %.6g, \"p99\": %.6g}"
               count (Stats.mean h.stats) (Stats.min h.stats) (Stats.max h.stats)
               (Stats.percentile h.stats 50.0)
               (Stats.percentile h.stats 99.0)));
      Buffer.add_string b (if i = n - 1 then "\n" else ",\n"))
    all;
  Buffer.add_string b "}\n";
  Buffer.contents b
