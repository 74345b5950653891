type site =
  | Mailbox_drop
  | Mailbox_duplicate
  | Mailbox_corrupt
  | Transport_delay
  | Worker_stall
  | Worker_crash
  | Crypto_transient
  | Memory_bit_flip
  | Migration_crash
  | Snapshot_corrupt
  | Chan_corrupt
  | Chan_truncate
  | Chan_reorder

(* New sites append at the end: [create] splits one RNG per site in
   this order, so appending preserves every existing site's stream
   (and therefore every seeded experiment's fault trace). *)
let all_sites =
  [
    Mailbox_drop; Mailbox_duplicate; Mailbox_corrupt; Transport_delay; Worker_stall;
    Worker_crash; Crypto_transient; Memory_bit_flip; Migration_crash; Snapshot_corrupt;
    Chan_corrupt; Chan_truncate; Chan_reorder;
  ]

let site_name = function
  | Mailbox_drop -> "mailbox-drop"
  | Mailbox_duplicate -> "mailbox-duplicate"
  | Mailbox_corrupt -> "mailbox-corrupt"
  | Transport_delay -> "transport-delay"
  | Worker_stall -> "worker-stall"
  | Worker_crash -> "worker-crash"
  | Crypto_transient -> "crypto-transient"
  | Memory_bit_flip -> "memory-bit-flip"
  | Migration_crash -> "migration-crash"
  | Snapshot_corrupt -> "snapshot-corrupt"
  | Chan_corrupt -> "chan-corrupt"
  | Chan_truncate -> "chan-truncate"
  | Chan_reorder -> "chan-reorder"

let site_index = function
  | Mailbox_drop -> 0
  | Mailbox_duplicate -> 1
  | Mailbox_corrupt -> 2
  | Transport_delay -> 3
  | Worker_stall -> 4
  | Worker_crash -> 5
  | Crypto_transient -> 6
  | Memory_bit_flip -> 7
  | Migration_crash -> 8
  | Snapshot_corrupt -> 9
  | Chan_corrupt -> 10
  | Chan_truncate -> 11
  | Chan_reorder -> 12

let n_sites = List.length all_sites

type schedule = Never | Always | Probability of float | Every_nth of int | Once_at of int

type rule = { site : site; schedule : schedule; intensity : float }

type plan = { seed : int64; plan_rules : rule list }

let check_rule r =
  (match r.schedule with
  | Probability p when not (p >= 0.0 && p <= 1.0) ->
    invalid_arg "Fault.plan: probability must be in [0,1]"
  | Every_nth n when n < 1 -> invalid_arg "Fault.plan: Every_nth needs n >= 1"
  | Once_at n when n < 1 -> invalid_arg "Fault.plan: Once_at needs n >= 1"
  | _ -> ());
  r

let plan ?(seed = 0xFA17L) rules = { seed; plan_rules = List.map check_rule rules }

let default_intensity = function
  | Transport_delay -> 50_000.0 (* a 50 us interconnect hiccup *)
  | Crypto_transient -> 1.0 (* one transparent retry: cost doubles *)
  | _ -> 1.0

let uniform ?(seed = 0xFA17L) ~rate () =
  plan ~seed
    (List.map
       (fun site -> { site; schedule = Probability rate; intensity = default_intensity site })
       all_sites)

let rules p = p.plan_rules
let seed p = p.seed

type slot = {
  rule : rule;
  rng : Hypertee_util.Xrng.t;
  mutable seen : int;
  mutable hits : int;
}

type t = {
  slots : slot array;
  flips : (int, int) Hashtbl.t;
  lock : Mutex.t;
      (* Each draw advances a per-site RNG stream and counters, so
         the whole consult is one critical section. A platform and its
         injector run on one domain, so the lock never contends and
         fault traces stay reproducible; it is kept as safety code. *)
}

let create p =
  let master = Hypertee_util.Xrng.create p.seed in
  (* Every site gets its own split, in a fixed order independent of
     the rule list, so two plans with the same seed drive each site
     with the same stream regardless of which other sites are
     enabled. *)
  let rngs = Array.init n_sites (fun _ -> Hypertee_util.Xrng.split master) in
  let slots =
    Array.of_list
      (List.map
         (fun site ->
           let rule =
             match List.find_opt (fun r -> r.site = site) p.plan_rules with
             | Some r -> r
             | None -> { site; schedule = Never; intensity = 0.0 }
           in
           { rule; rng = rngs.(site_index site); seen = 0; hits = 0 })
         all_sites)
  in
  { slots; flips = Hashtbl.create 64; lock = Mutex.create () }

let slot t site = t.slots.(site_index site)

let fire t site =
  let s = slot t site in
  let hit =
    Mutex.protect t.lock @@ fun () ->
    s.seen <- s.seen + 1;
    let hit =
      match s.rule.schedule with
      | Never -> false
      | Always -> true
      | Probability p -> Hypertee_util.Xrng.float s.rng < p
      | Every_nth n -> s.seen mod n = 0
      | Once_at n -> s.seen = n
    in
    if hit then s.hits <- s.hits + 1;
    hit
  in
  if hit then begin
    if Hypertee_obs.Trace.enabled () then
      Hypertee_obs.Trace.instant ~cat:Hypertee_obs.Trace.Fault
        ~name:("fault:" ^ site_name site) ()
  end;
  hit

let intensity t site = (slot t site).rule.intensity

let draw_int t site bound =
  Mutex.protect t.lock (fun () -> Hypertee_util.Xrng.int (slot t site).rng bound)
let fired t site = (slot t site).hits
let opportunities t site = (slot t site).seen
let total_fired t = Array.fold_left (fun acc s -> acc + s.hits) 0 t.slots

(* Flip journal: per-frame count of bit flips actually applied by the
   memory model. Flips corrupt transient read copies, so the only
   MAC failures they can cause in a checker sweep are ones whose
   flip fired during that very read — the before/after delta of
   [flips_on] is what classifies a deep-sweep MAC failure as
   injected rather than a latent platform bug. *)
let note_flip t ~frame =
  Mutex.protect t.lock @@ fun () ->
  Hashtbl.replace t.flips frame (1 + Option.value ~default:0 (Hashtbl.find_opt t.flips frame))

let flips_on t ~frame =
  Mutex.protect t.lock (fun () ->
      Option.value ~default:0 (Hashtbl.find_opt t.flips frame))

let publish_metrics t registry =
  let module M = Hypertee_obs.Metrics in
  Array.iter
    (fun s ->
      let name = site_name s.rule.site in
      M.set_counter
        (M.counter registry ~help:"times this fault site fired" ("faults." ^ name ^ ".fired"))
        s.hits;
      M.set_counter
        (M.counter registry ~help:"times this fault site was consulted"
           ("faults." ^ name ^ ".opportunities"))
        s.seen)
    t.slots
