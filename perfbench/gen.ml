(* The benchmark's own input generator. Every input a workload feeds
   the platform is drawn here from the run's seed, so the platform's
   library generators can change without moving the benchmark. *)

module Xrng = Hypertee_util.Xrng
module Sdk = Hypertee.Sdk
module Types = Hypertee_ems.Types

type image = { sdk : Sdk.image; measurement : bytes }

(* Seeded bytes, eight per draw. *)
let random_bytes rng n =
  let b = Bytes.create n in
  let i = ref 0 in
  while !i + 8 <= n do
    Bytes.set_int64_le b !i (Xrng.next64 rng);
    i := !i + 8
  done;
  while !i < n do
    Bytes.set_uint8 b !i (Int64.to_int (Xrng.next64 rng) land 0xff);
    incr i
  done;
  b

(* Tenant images are small services: one code page, one data page and
   a four-page heap, so a cold launch is a handful of EADDs. *)
let tenant_config =
  { Types.code_pages = 1; data_pages = 1; heap_pages = 4; stack_pages = 1; shared_pages = 1 }

(* Image [index] of catalog [catalog]. The little-endian index in the
   first eight code bytes makes every index of a catalog distinct (the
   library's [Tenants.image_bytes] repeats after 128 indices); the rest
   is pseudo-random per (catalog, index). *)
let image ~catalog ~config index =
  let rng =
    Xrng.create (Int64.logxor catalog (Int64.mul (Int64.of_int (index + 1)) 0x9E3779B97F4A7C15L))
  in
  let code = random_bytes rng 96 in
  Bytes.set_int64_le code 0 (Int64.of_int index);
  let data = random_bytes rng 64 in
  let sdk = Sdk.image_of_code ~config ~code ~data () in
  { sdk; measurement = Sdk.expected_measurement sdk }

(* Fixed catalogs: the set of deployed images is part of a workload's
   definition, not of its traffic. Which EMS shard an image's warm pool
   lives on follows from its measurement, so a seeded catalog would
   move shard balance, and with it the knee, from seed to seed. *)
let mix_catalog_id = 0x4D49585F43415431L
let echo_catalog_id = 0x4543484F5F434154L

(* --- open-loop tenant traffic ---------------------------------------- *)

type popularity =
  | Zipf of { images : image array; cdf : float array }
  | Distinct of { catalog : int64 }

type session = {
  sid : int;
  rung : int;  (** index into the ladder the session arrived on *)
  arrival_ns : float;  (** due time; [Tenant.run] starts the session exactly then *)
  image : image;
  ops : int;  (** 64-byte compute rounds over the session's channel *)
}

(* Zipf popularity: rank k has weight 1/(k+1)^s. *)
let zipf_cdf ~n ~s =
  let w = Array.init n (fun k -> 1.0 /. (float_of_int (k + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_catalog ~images ~s =
  Zipf
    {
      images = Array.init images (image ~catalog:mix_catalog_id ~config:tenant_config);
      cdf = zipf_cdf ~n:images ~s;
    }

(* Session length: geometric with mean 4 compute rounds, capped at 32
   (the shape of [Tenants.default_spec]). *)
let session_ops rng =
  let rec go n = if n >= 32 || Xrng.float rng < 0.25 then n else go (n + 1) in
  go 1

(* Tenant-cold images are drawn uniformly from 2^40 indices, far more
   than the 8-per-shard warm pool can hold, so a repeat is rare and a
   warm-pool hit rarer still. *)
let draw_image rng = function
  | Zipf { images; cdf } ->
    let u = Xrng.float rng in
    let rec pick i = if i >= Array.length cdf - 1 || u <= cdf.(i) then i else pick (i + 1) in
    images.(pick 0)
  | Distinct { catalog } ->
    let index = Int64.to_int (Int64.shift_right_logical (Xrng.next64 rng) 24) in
    image ~catalog ~config:tenant_config index

(* Poisson arrivals climbing [ladder]: rung k spreads [sessions]
   arrivals over exactly [sessions / rate] seconds, starting where rung
   k-1 ended. Given its count, a Poisson process's arrival times are
   sorted uniform draws, so this is one conditioned on the count: every
   seed offers each rung exactly its rate, and only the bursts differ. *)
let open_loop ~seed ~popularity ~ladder =
  let rng = Xrng.create seed in
  let start = ref 0.0 and sid = ref 0 in
  List.concat
    (List.mapi
       (fun rung (rate, sessions) ->
         let span = float_of_int sessions *. 1e9 /. rate in
         let times = Array.init sessions (fun _ -> !start +. (Xrng.float rng *. span)) in
         Array.sort Float.compare times;
         start := !start +. span;
         List.map
           (fun arrival_ns ->
             let image = draw_image rng popularity in
             let s = { sid = !sid; rung; arrival_ns; image; ops = session_ops rng } in
             incr sid;
             s)
           (Array.to_list times))
       ladder)

(* --- closed-loop channel echo --------------------------------------- *)

(* Echo images use the SDK's default layout: the 16-page heap holds
   the largest message. *)
let echo_catalog ~images =
  Array.init images (image ~catalog:echo_catalog_id ~config:Types.default_config)

type echo_session = { esid : int; echo_image : image; messages : bytes list }

(* Messages are 1-6 KiB, so each spans two to seven 1 KiB mailbox
   segments; [messages] per session is chosen by the caller so a
   session crosses the record layer's rekey boundary. *)
let echo_sessions ~seed ~catalog ~sessions ~messages =
  let rng = Xrng.create seed in
  List.init sessions (fun esid ->
      {
        esid;
        echo_image = catalog.(esid mod Array.length catalog);
        messages = List.init messages (fun _ -> random_bytes rng (Xrng.int_in rng 1025 6144));
      })
