(* Host clock, the traced run's spans, and the gate tap.

   Two clocks: "modelled" is the cost model's virtual time (returned by
   the gate with every call), "host" is this process's monotonic clock.
   Spans are recorded only in a traced run, by the benchmark's own code
   around each call into a layer's public function; an untraced run
   pays one branch per call. *)

module Platform = Hypertee.Platform
module Emcall = Hypertee_cs.Emcall
module Types = Hypertee_ems.Types
module Cost = Hypertee_ems.Cost
module Config = Hypertee_arch.Config
module Oracle = Hypertee_check.Oracle

let now_ns () = Int64.to_float (Monotonic_clock.now ())

type span = {
  id : int;
  name : string;
  layer : string;
  session : int;  (** -1 outside any session *)
  parent : int;  (** 0 at top level *)
  t0 : float;  (** host ns *)
  t1 : float;
  words : float;  (** [Gc.minor_words] delta *)
}

type t = {
  traced : bool;
  cost : Cost.t;
  mutable spans : span array;
  mutable count : int;
  mutable stack : int list;
  mutable session : int;
  (* Called with every completed EMCall the gate tap observes: the
     request, its modelled latency and the EMS service share of it
     (ns). *)
  mutable on_call : Types.request -> latency:float -> service:float -> unit;
  mutable observed : int;  (** calls the tap saw, rejections included *)
  mutable completed : int;
  mutable latency_ns : float;  (** sum over completed calls *)
  mutable service_ns : float;
}

let ignore_call _ ~latency:_ ~service:_ = ()

let create ~traced ~cost =
  {
    traced;
    cost;
    spans = [||];
    count = 0;
    stack = [];
    session = -1;
    on_call = ignore_call;
    observed = 0;
    completed = 0;
    latency_ns = 0.0;
    service_ns = 0.0;
  }

let push t s =
  if t.count = Array.length t.spans then begin
    let grown = Array.make (Stdlib.max 1024 (2 * t.count)) s in
    Array.blit t.spans 0 grown 0 t.count;
    t.spans <- grown
  end;
  t.spans.(t.count) <- s;
  t.count <- t.count + 1

(* [span t ~layer name f] runs [f], recording a span around it when
   traced. The span id is its index + 1, so ids are dense and parents
   are found by index. *)
let span t ~layer name f =
  if not t.traced then f ()
  else begin
    let id = t.count + 1 in
    let parent = match t.stack with p :: _ -> p | [] -> 0 in
    (* Reserve the slot so children land after their parent. *)
    push t { id; name; layer; session = t.session; parent; t0 = 0.0; t1 = 0.0; words = 0.0 };
    t.stack <- id :: t.stack;
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let close () =
      let t1 = now_ns () in
      let words = Gc.minor_words () -. w0 in
      t.stack <- List.tl t.stack;
      t.spans.(id - 1) <- { id; name; layer; session = t.session; parent; t0; t1; words }
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let spans t = Array.sub t.spans 0 t.count
let duration s = s.t1 -. s.t0

(* Self time and self allocation: a span minus its direct children. *)
let self_times spans =
  let self_ns = Array.map duration spans and self_w = Array.map (fun s -> s.words) spans in
  Array.iter
    (fun s ->
      if s.parent > 0 then begin
        let p = s.parent - 1 in
        self_ns.(p) <- self_ns.(p) -. duration s;
        self_w.(p) <- self_w.(p) -. s.words
      end)
    spans;
  (self_ns, self_w)

let write_spans t path =
  let oc = open_out path in
  output_string oc "id\tparent\tsession\tlayer\tname\thost_start_ns\thost_end_ns\tminor_words\n";
  for i = 0 to t.count - 1 do
    let s = t.spans.(i) in
    Printf.fprintf oc "%d\t%d\t%d\t%s\t%s\t%.0f\t%.0f\t%.0f\n" s.id s.parent s.session s.layer
      s.name s.t0 s.t1 s.words
  done;
  close_out oc

(* The cost model the platform prices EMS service with, rebuilt from
   the public configuration: the modelled latency of a call minus this
   is its gate + transport share. *)
let cost_model (config : Config.t) =
  Cost.create
    ~ems:(Config.ems_core config.Config.ems_kind)
    ~engine:
      (if config.Config.crypto_engine then Hypertee_crypto.Engine.default_hardware
       else Hypertee_crypto.Engine.default_software)

(* Keep the differential oracle on the gate and wrap its tap: every
   completed call reports its modelled latency to [on_call], and the
   oracle's replay is a [check] span of its own. The platform exposes
   no public way to chain a tap, so the wrapper goes in through the
   gate handle; it observes and forwards, nothing else. *)
let attach t platform =
  let oracle = Platform.attach_oracle platform in
  let inner = Oracle.tap oracle in
  Emcall.set_tap (Platform.Internals.emcall platform) (fun ~caller ~batched request result ->
      t.observed <- t.observed + 1;
      (match result with
      | Ok (_, latency) ->
        let service = Cost.service_ns t.cost request in
        t.completed <- t.completed + 1;
        t.latency_ns <- t.latency_ns +. latency;
        t.service_ns <- t.service_ns +. service;
        t.on_call request ~latency ~service
      | Error _ -> ());
      span t ~layer:"check" "check.oracle" (fun () -> inner ~caller ~batched request result));
  oracle

(* Nearest-rank percentile of a sorted array: the smallest sample with
   at least [p]% of the samples at or below it. Failed sessions enter
   rank computations as [infinity], so they count as missing any
   limit. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    (* rank = ceil (p * n / 100), in integer hundredths of a percent *)
    let rank = ((int_of_float (Float.round (p *. 100.0)) * n) + 9999) / 10000 in
    sorted.(Stdlib.min (n - 1) (Stdlib.max 0 (rank - 1)))

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a
