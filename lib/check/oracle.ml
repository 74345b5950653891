module Types = Hypertee_ems.Types
module Enclave = Hypertee_ems.Enclave
module Emcall = Hypertee_cs.Emcall

let page_size = Hypertee_util.Units.page_size

(* --- the reference model ------------------------------------------- *)

type estate = Loading | Measured | Running | Interrupted | Unknown

type menclave = {
  eid : int;
  mutable st : estate;
  mutable layout : Enclave.layout option;  (* known when the Create was observed *)
  mutable config : Types.enclave_config option;
  mutable heap_cursor : int option;
  mutable shm_cursor : int option;
  mutable measured : bool option;
  mutable attached : int list;  (* shm ids *)
  mutable fuzzy_attach : bool;  (* a timed-out shm op may have changed it *)
}

type mregion = {
  rid : int;
  rowner : int;
  rpages : int;
  rmax : Types.perm;
  mutable legal : (int * Types.perm) list;
  mutable rattached : int list;
  mutable rfuzzy : bool;
}

(* A secure channel as the model knows it: the control-plane facts
   the fabric checks (listener, initiator endpoint, accepted flag).
   Queue depth is deliberately untracked — segment backlog depends on
   interleavings the tap cannot reconstruct — so data-plane
   predictions only commit to what the control state proves. *)
type mchan = {
  mc_listener : int;
  mc_initiator : int option;  (* None = host endpoint *)
  mutable mc_accepted : bool;
  mutable mc_fuzzy : bool;  (* a timed-out ECHACC left the accept state unknown *)
}

type divergence = { index : int; opcode : Types.opcode; expected : string; observed : string }

type t = {
  stride : int;  (* EMS shard count: shard state is disjoint across residue classes *)
  migrated : (int, int) Hashtbl.t;  (* enclave -> hosting shard, overriding residue *)
  enclaves : (int, menclave) Hashtbl.t;
  regions : (int, mregion) Hashtbl.t;
  chans : (int, mchan) Hashtbl.t;
  parked : (int, menclave) Hashtbl.t;
      (* Warm pool, deliberately weak: ERETIRE answers Ok_unit whether
         it parked or fell back to a full destroy (modified pages,
         capacity, ...), so an entry here means "parked OR destroyed".
         Both are invisible to every primitive except EWARM (which may
         revive exactly these ids) and EDESTROY (Ok_unit or
         No_such_enclave — either is legal). *)
  seen_enclave_ids : (int, unit) Hashtbl.t;
  seen_shm_ids : (int, unit) Hashtbl.t;
  seen_chan_ids : (int, unit) Hashtbl.t;
  (* Fog: a timed-out call whose EMS-side effect the model cannot
     know. Each flag permanently weakens the class of prediction it
     poisons — soundness beats completeness for an oracle. *)
  mutable fog_enclaves : bool;  (* a Create may have happened unseen *)
  mutable fog_shms : bool;  (* a Shmget may have happened unseen *)
  mutable fog_chans : bool;  (* an ECHOPEN/ECHCLOSE may have happened unseen *)
  mutable fog_existence : bool;  (* an unattributed containment may have destroyed anyone *)
  mutable heap_fuzzy : bool;  (* EFREE/EWB punched holes in some heap *)
  mutable calls : int;
  mutable agreed : int;
  mutable diverged : int;
  mutable kept : divergence list;  (* newest first, capped *)
}

let kept_cap = 32

let create ?(shards = 1) () =
  {
    stride = Stdlib.max 1 shards;
    migrated = Hashtbl.create 8;
    enclaves = Hashtbl.create 32;
    regions = Hashtbl.create 16;
    chans = Hashtbl.create 16;
    parked = Hashtbl.create 16;
    seen_enclave_ids = Hashtbl.create 32;
    seen_shm_ids = Hashtbl.create 16;
    seen_chan_ids = Hashtbl.create 16;
    fog_enclaves = false;
    fog_shms = false;
    fog_chans = false;
    fog_existence = false;
    heap_fuzzy = false;
    calls = 0;
    agreed = 0;
    diverged = 0;
    kept = [];
  }

(* --- gate model ----------------------------------------------------- *)

let privilege_of = function
  | Emcall.Os_kernel -> Types.Os
  | Emcall.User_host | Emcall.User_enclave _ -> Types.User

let sender_of = function
  | Emcall.Os_kernel | Emcall.User_host -> None
  | Emcall.User_enclave id -> Some id

let gate_rejects caller request =
  match request with
  | Types.Page_fault _ | Types.Interrupt _ -> false
  | _ ->
    privilege_of caller <> Types.required_privilege (Types.opcode_of_request request)

(* --- predictions ----------------------------------------------------- *)

type expect =
  | Reject  (* Cross_privilege at the gate *)
  | Accept of string * (Types.response -> bool)
  | Any  (* the model lacks grounds to commit *)

let expect_ok_unit = Accept ("Ok_unit", fun r -> r = Types.Ok_unit)

let expect_err name pred = Accept (name, fun r -> match r with Types.Err e -> pred e | _ -> false)

let err_no_enclave = expect_err "Err No_such_enclave" (fun e -> e = Types.No_such_enclave)
let err_no_shm = expect_err "Err No_such_shm" (fun e -> e = Types.No_such_shm)
let err_no_chan = expect_err "Err No_such_channel" (fun e -> e = Types.No_such_channel)
let err_not_registered = expect_err "Err Not_registered" (fun e -> e = Types.Not_registered)

let err_perm =
  expect_err "Err Permission_denied" (function Types.Permission_denied _ -> true | _ -> false)

let err_invalid =
  expect_err "Err Invalid_argument" (function Types.Invalid_argument_ _ -> true | _ -> false)

let err_bad_state =
  expect_err "Err Bad_state" (function Types.Bad_state _ -> true | _ -> false)

let find_e t id = Hashtbl.find_opt t.enclaves id

(* The gate routes a request to the shard owning the id's residue
   class — unless the platform told us the id migrated ([note_migration]);
   ids hosted on another shard do not exist on this one. *)
let shard_of t id =
  match Hashtbl.find_opt t.migrated id with
  | Some s -> s
  | None -> (id - 1) mod t.stride

let co_sharded t a b = shard_of t a = shard_of t b

let unknown_enclave t = if t.fog_enclaves then Any else err_no_enclave
let unknown_region t = if t.fog_shms then Any else err_no_shm
let unknown_channel t = if t.fog_chans then Any else err_no_chan

(* A channel entry the model holds may have been reaped behind its
   back: an unattributed containment ([fog_existence]) destroys the
   endpoint enclave, and [Chan.drop_for_enclave] reaps its channels
   with it. In that fog, commit to nothing. *)
let find_chan t chan =
  match Hashtbl.find_opt t.chans chan with
  | Some c when c.mc_fuzzy || t.fog_existence -> `Fuzzy
  | Some c -> `Known c
  | None -> `Unknown

(* Is [sender] (None = host software) an endpoint of channel [c]? *)
let chan_endpoint c ~(sender : int option) =
  sender = c.mc_initiator || match sender with Some s -> s = c.mc_listener | None -> false

(* The handler preamble shared by every primitive acting on a target
   enclave: [get_enclave] then [check_identity ~strict]. The identity
   rule is Sec. III-B: a packet stamped with an enclave id must name
   the enclave it acts on; [strict] additionally rejects unstamped
   (host-software) senders. *)
let preamble t ~sender ~target ~strict k =
  match find_e t target with
  | None -> unknown_enclave t
  | Some e -> (
    match sender with
    | Some s when s <> target -> err_perm
    | Some _ -> k e
    | None -> if strict then err_perm else k e)

let sane_config (c : Types.enclave_config) =
  c.Types.code_pages > 0
  && c.Types.code_pages <= 4096
  && c.Types.data_pages >= 0
  && c.Types.heap_pages >= 0
  && c.Types.stack_pages > 0
  && c.Types.shared_pages >= 0
  && Types.total_static_pages c <= 65536

(* Is [vpn] an EADD target in a Loading enclave — mapped under the
   enclave's own KeyID — as far as the model can prove? The staging
   window (KeyID 0) and the shm window (a region's KeyID) never are.
   Heap pages go [`Maybe] once any EFREE/EWB has run anywhere
   (holes). *)
let add_target_status t (e : menclave) vpn =
  match (e.layout, e.config, e.heap_cursor) with
  | Some l, Some c, Some cursor ->
    let within base n = vpn >= base && vpn < base + n in
    if
      within l.Enclave.code_base c.Types.code_pages
      || within l.Enclave.data_base c.Types.data_pages
      || within l.Enclave.stack_base c.Types.stack_pages
    then `Target
    else if vpn >= l.Enclave.heap_base && vpn < cursor then
      if t.heap_fuzzy then `Maybe else `Target
    else `Refused
  | _ -> `Maybe

let predict t ~sender request =
  match request with
  | Types.Create { config } ->
    if not (sane_config config) then err_invalid
    else
      Accept
        ( "Ok_created with a never-issued id",
          function
          | Types.Ok_created { enclave } ->
            enclave >= 1 && not (Hashtbl.mem t.seen_enclave_ids enclave)
          | _ -> false )
  | Types.Add { enclave; vpn; data; executable = _ } ->
    (* EADD takes no identity check (the enclave cannot run yet). *)
    ( match find_e t enclave with
    | None -> unknown_enclave t
    | Some e -> (
      match e.st with
      | Loading ->
        if Bytes.length data > page_size then err_invalid
        else (
          match add_target_status t e vpn with
          | `Target -> expect_ok_unit
          | `Refused -> err_invalid
          | `Maybe -> Any)
      | Unknown -> Any
      | Measured | Running | Interrupted -> err_bad_state))
  | Types.Enter { enclave } -> (
    match find_e t enclave with
    | None -> unknown_enclave t
    | Some e -> (
      match e.st with
      | Measured ->
        Accept
          ( "Ok_entered",
            function Types.Ok_entered { enclave = e' } -> e' = enclave | _ -> false )
      | Unknown -> Any
      | Loading | Running | Interrupted -> err_bad_state))
  | Types.Resume { enclave } -> (
    match find_e t enclave with
    | None -> unknown_enclave t
    | Some e -> (
      match e.st with
      | Interrupted ->
        Accept
          ( "Ok_entered",
            function Types.Ok_entered { enclave = e' } -> e' = enclave | _ -> false )
      | Unknown -> Any
      | Loading | Measured | Running -> err_bad_state))
  | Types.Interrupt { enclave; _ } -> (
    match find_e t enclave with
    | None -> unknown_enclave t
    | Some e -> (
      match e.st with
      | Running -> expect_ok_unit
      | Unknown -> Any
      | Loading | Measured | Interrupted -> err_bad_state))
  | Types.Exit { enclave } ->
    preamble t ~sender ~target:enclave ~strict:true (fun e ->
        match e.st with
        | Running | Interrupted -> expect_ok_unit
        | Unknown -> Any
        | Loading | Measured -> err_bad_state)
  | Types.Destroy { enclave } -> (
    match find_e t enclave with
    | Some _ -> expect_ok_unit
    | None ->
      if Hashtbl.mem t.parked enclave then
        (* Parked (destroy evicts it, Ok_unit) or already destroyed
           at retire time (No_such_enclave) — the model cannot tell. *)
        Accept
          ( "Ok_unit (parked) or Err No_such_enclave (retired to destroy)",
            function
            | Types.Ok_unit | Types.Err Types.No_such_enclave -> true
            | _ -> false )
      else unknown_enclave t)
  | Types.Alloc { enclave; pages } ->
    preamble t ~sender ~target:enclave ~strict:false (fun e ->
        if pages <= 0 || pages > 16384 then err_invalid
        else
          match e.heap_cursor with
          | Some cursor ->
            Accept
              ( Printf.sprintf "Ok_alloc at the heap cursor (vpn %d)" cursor,
                function
                | Types.Ok_alloc { base_vpn; pages = p } -> base_vpn = cursor && p = pages
                | _ -> false )
          | None -> Any)
  | Types.Free { enclave; vpn = _; pages } ->
    preamble t ~sender ~target:enclave ~strict:false (fun _ ->
        if pages <= 0 then err_invalid else Any)
  | Types.Writeback { pages_hint } ->
    if pages_hint <= 0 || pages_hint > 4096 then err_invalid
    else
      Accept
        ( Printf.sprintf "Ok_writeback with at most %d distinct frame(s)"
            (pages_hint + (pages_hint / 2)),
          function
          | Types.Ok_writeback { frames; blobs } ->
            List.length frames <= pages_hint + (pages_hint / 2)
            && List.length blobs = List.length frames
            && List.length (List.sort_uniq compare frames) = List.length frames
          | _ -> false )
  | Types.Page_fault { enclave; vpn } -> (
    match find_e t enclave with
    | None -> unknown_enclave t
    | Some e -> (
      match (e.layout, e.heap_cursor) with
      | Some l, Some cursor ->
        (* Growable region plus anything EWB may have evicted (heap
           pages below the cursor — always inside this range). *)
        if vpn >= l.Enclave.heap_base && vpn < max l.Enclave.stack_base cursor then
          Accept
            ( "Ok_alloc of the faulting page",
              function
              | Types.Ok_alloc { base_vpn; pages } -> base_vpn = vpn && pages = 1
              | _ -> false )
        else err_invalid
      | _ -> Any))
  | Types.Shmget { owner; pages; max_perm = _ } ->
    preamble t ~sender ~target:owner ~strict:true (fun _ ->
        if pages <= 0 || pages > 4096 then err_invalid
        else
          Accept
            ( "Ok_shm with a never-issued id",
              function
              | Types.Ok_shm { shm } -> shm >= 1 && not (Hashtbl.mem t.seen_shm_ids shm)
              | _ -> false ))
  | Types.Shmshr { owner; shm; grantee; perm = _ } ->
    preamble t ~sender ~target:owner ~strict:true (fun _ ->
        (* Served on the owner's shard: a grantee from another
           residue class does not exist there. *)
        if not (co_sharded t owner grantee) then err_no_enclave
        else
          match find_e t grantee with
          | None -> unknown_enclave t
          | Some _ -> (
            if not (co_sharded t owner shm) then err_no_shm
            else
              match Hashtbl.find_opt t.regions shm with
              | None -> unknown_region t
              | Some r -> if r.rowner <> owner then err_perm else expect_ok_unit))
  | Types.Shmat { enclave; shm; requested_perm } ->
    preamble t ~sender ~target:enclave ~strict:true (fun e ->
        (* Served on the enclave's shard: regions minted by another
           shard (the shm id's residue class) do not exist there. *)
        if not (co_sharded t enclave shm) then err_no_shm
        else
        match Hashtbl.find_opt t.regions shm with
        | None -> unknown_region t
        | Some r ->
          if r.rfuzzy || e.fuzzy_attach then Any
          else (
            match List.assoc_opt enclave r.legal with
            | None -> err_not_registered
            | Some granted ->
              if List.mem enclave r.rattached then err_invalid
              else if requested_perm = Types.Read_write && granted = Types.Read_only then
                err_perm
              else
                Accept
                  ( (match e.shm_cursor with
                    | Some c -> Printf.sprintf "Ok_shmat at the shm cursor (vpn %d)" c
                    | None -> "Ok_shmat"),
                    function
                    | Types.Ok_shmat { base_vpn; pages } ->
                      pages = r.rpages
                      && (match e.shm_cursor with Some c -> base_vpn = c | None -> true)
                    | _ -> false )))
  | Types.Shmdt { enclave; shm } ->
    preamble t ~sender ~target:enclave ~strict:true (fun e ->
        if e.fuzzy_attach then Any
        else if List.mem shm e.attached then expect_ok_unit
        else err_invalid)
  | Types.Shmdes { owner; shm } ->
    preamble t ~sender ~target:owner ~strict:true (fun _ ->
        if not (co_sharded t owner shm) then err_no_shm
        else
        match Hashtbl.find_opt t.regions shm with
        | None -> unknown_region t
        | Some r ->
          if r.rfuzzy then Any
          else if r.rowner <> owner then err_perm
          else if r.rattached <> [] then err_perm
          else expect_ok_unit)
  | Types.Measure { enclave } -> (
    match find_e t enclave with
    | None -> unknown_enclave t
    | Some e -> (
      match e.st with
      | Loading ->
        Accept
          ( "Ok_measure (32-byte digest)",
            function
            | Types.Ok_measure { measurement } -> Bytes.length measurement = 32
            | _ -> false )
      | Unknown -> Any
      | Measured | Running | Interrupted -> err_bad_state))
  | Types.Attest { enclave; user_data = _ } ->
    preamble t ~sender ~target:enclave ~strict:true (fun e ->
        match (e.st, e.measured) with
        | Unknown, _ | _, None -> Any
        | _, Some true ->
          Accept
            ( "Ok_attest",
              function
              | Types.Ok_attest { quote } -> Bytes.length quote > 0
              | _ -> false )
        | _, Some false -> err_bad_state)
  | Types.Chan_open { listener } -> (
    (* Served on the listener's shard; check order mirrors
       [Svc_channel.handle_open]: existence, then the self-open
       guard, then a mint from the serving shard's residue class. *)
    match find_e t listener with
    | None -> unknown_enclave t
    | Some _ ->
      if sender = Some listener then err_invalid
      else
        Accept
          ( "Ok_chan with a never-issued id from the listener's shard",
            function
            | Types.Ok_chan { chan; binding } ->
              chan >= 1
              && (not (Hashtbl.mem t.seen_chan_ids chan))
              && (chan - 1) mod t.stride = shard_of t listener
              && Bytes.length binding = 16
            | _ -> false ))
  | Types.Chan_accept { enclave; chan } ->
    preamble t ~sender ~target:enclave ~strict:true (fun _ ->
        match find_chan t chan with
        | `Unknown -> unknown_channel t
        | `Fuzzy -> Any
        | `Known c ->
          if c.mc_listener <> enclave then err_perm
          else if c.mc_accepted then err_bad_state
          else
            Accept
              ( "Ok_chan for the accepted channel",
                function
                | Types.Ok_chan { chan = chan'; binding } ->
                  chan' = chan && Bytes.length binding = 16
                | _ -> false ))
  | Types.Chan_send { chan; seg } -> (
    match find_chan t chan with
    | `Unknown -> unknown_channel t
    | `Fuzzy -> Any
    | `Known c ->
      if Bytes.length seg = 0 || Bytes.length seg > 1024 then err_invalid
      else if not (chan_endpoint c ~sender) then err_perm
      else
        (* Queue depth is untracked, so a full queue is the one
           rejection the model cannot rule out. *)
        Accept
          ( "Ok_unit (or a full channel queue)",
            function
            | Types.Ok_unit -> true
            | Types.Err (Types.Invalid_argument_ m) -> m = "channel queue full"
            | _ -> false ))
  | Types.Chan_recv { chan } -> (
    match find_chan t chan with
    | `Unknown -> unknown_channel t
    | `Fuzzy -> Any
    | `Known c ->
      if not (chan_endpoint c ~sender) then err_perm
      else Accept ("Ok_seg", function Types.Ok_seg _ -> true | _ -> false))
  | Types.Chan_close { chan } -> (
    match find_chan t chan with
    | `Unknown -> unknown_channel t
    | `Fuzzy -> Any
    | `Known c -> if not (chan_endpoint c ~sender) then err_perm else expect_ok_unit)
  | Types.Retire { enclave } -> (
    match find_e t enclave with
    | None -> unknown_enclave t
    | Some e -> (
      match e.st with
      | Measured ->
        (* ERETIRE answers Ok_unit whether it parks or falls back to
           a full destroy; only attached shared memory rejects it. *)
        if e.fuzzy_attach then Any
        else if e.attached <> [] then err_bad_state
        else expect_ok_unit
      | Unknown -> Any
      | Loading | Running | Interrupted -> err_bad_state))
  | Types.Warm_create { measurement } ->
    if Bytes.length measurement <> 32 then err_invalid
    else if Hashtbl.length t.parked = 0 && not t.fog_enclaves then
      (* Nothing was ever parked: every shard must miss. *)
      err_bad_state
    else
      (* Weak by design: the request round-robins to one shard, whose
         warm pool may or may not hold a match — and the model does
         not track measurements. Commit only to the id space. *)
      Accept
        ( "Ok_created with a previously-parked id, or Err Bad_state on a miss",
          function
          | Types.Ok_created { enclave } -> Hashtbl.mem t.parked enclave || t.fog_enclaves
          | Types.Err (Types.Bad_state _) -> true
          | _ -> false )

(* --- adoption: fold the observed truth back into the model ---------- *)

let adopt_stub t id =
  match find_e t id with
  | Some e -> e
  | None ->
    let e =
      {
        eid = id;
        st = Unknown;
        layout = None;
        config = None;
        heap_cursor = None;
        shm_cursor = None;
        measured = None;
        attached = [];
        fuzzy_attach = true;
      }
    in
    Hashtbl.replace t.enclaves id e;
    Hashtbl.replace t.seen_enclave_ids id ();
    e

let opt_max cursor v = match cursor with Some c -> Some (max c v) | None -> Some v

(* Regions whose owner is gone and to which nobody is attached are
   reaped by the EMS itself (EDESTROY / ESHMDT); mirror that. *)
let reap_orphans t =
  let dead =
    Hashtbl.fold
      (fun id r acc ->
        if (not (Hashtbl.mem t.enclaves r.rowner)) && r.rattached = [] && not r.rfuzzy then
          id :: acc
        else acc)
      t.regions []
  in
  List.iter (Hashtbl.remove t.regions) dead

(* EDESTROY reaps every channel naming the enclave as an endpoint
   ([Chan.drop_for_enclave] — the "no orphaned channel keys" rule);
   mirror that. *)
let reap_chans_of t id =
  let dead =
    Hashtbl.fold
      (fun chan c acc ->
        if c.mc_listener = id || c.mc_initiator = Some id then chan :: acc else acc)
      t.chans []
  in
  List.iter (Hashtbl.remove t.chans) dead

let remove_enclave t id =
  (match find_e t id with
  | Some e ->
    List.iter
      (fun shm ->
        match Hashtbl.find_opt t.regions shm with
        | Some r -> r.rattached <- List.filter (fun x -> x <> id) r.rattached
        | None -> ())
      e.attached
  | None -> ());
  Hashtbl.remove t.enclaves id;
  Hashtbl.remove t.parked id;
  reap_chans_of t id;
  reap_orphans t

let mark_unknown t id =
  let e = adopt_stub t id in
  e.st <- Unknown;
  e.measured <- None

(* The platform restored or migrated [enclave] outside the gate: it
   now lives on [shard], in a state the tap never observed. Route
   there and adopt its lifecycle from later responses — without this
   the model would predict [No_such_enclave] for a live enclave. *)
let note_migration t ~enclave ~shard =
  Hashtbl.replace t.migrated enclave (shard mod t.stride);
  mark_unknown t enclave

(* The platform cold-restarted [shard]: channel ops are not
   journaled, so recovery reaped every channel homed there
   ([Chan.drop_home]). A channel's home is its minting shard, and
   minting follows the id residue discipline, so the reaped set is
   exactly the ids of that residue class. *)
let note_recovery t ~shard =
  let s = shard mod t.stride in
  let dead =
    Hashtbl.fold (fun chan _ acc -> if (chan - 1) mod t.stride = s then chan :: acc else acc)
      t.chans []
  in
  List.iter (Hashtbl.remove t.chans) dead

(* A call timed out at the gate: the EMS may or may not have served
   it. Poison exactly the knowledge that request could have changed. *)
let apply_timeout t request =
  match request with
  | Types.Create _ -> t.fog_enclaves <- true
  | Types.Shmget { owner; _ } ->
    t.fog_shms <- true;
    mark_unknown t owner
  | Types.Destroy { enclave } ->
    remove_enclave t enclave;
    t.fog_enclaves <- true;
    t.fog_existence <- true
  | Types.Shmdes { owner; shm } ->
    Hashtbl.remove t.regions shm;
    t.fog_shms <- true;
    mark_unknown t owner
  | Types.Shmat { enclave; shm; _ } | Types.Shmdt { enclave; shm } ->
    (match find_e t enclave with
    | Some e ->
      e.fuzzy_attach <- true;
      e.shm_cursor <- None
    | None -> ());
    (match Hashtbl.find_opt t.regions shm with Some r -> r.rfuzzy <- true | None -> ())
  | Types.Shmshr { shm; _ } -> (
    match Hashtbl.find_opt t.regions shm with Some r -> r.rfuzzy <- true | None -> ())
  | Types.Alloc { enclave; _ } | Types.Page_fault { enclave; _ } -> (
    match find_e t enclave with Some e -> e.heap_cursor <- None | None -> ())
  | Types.Free { enclave; _ } ->
    t.heap_fuzzy <- true;
    ignore enclave
  | Types.Writeback _ -> t.heap_fuzzy <- true
  | Types.Enter { enclave }
  | Types.Resume { enclave }
  | Types.Exit { enclave }
  | Types.Interrupt { enclave; _ }
  | Types.Measure { enclave } ->
    mark_unknown t enclave
  | Types.Add _ | Types.Attest _ -> ()
  | Types.Chan_open _ ->
    (* A channel may have been minted unseen. *)
    t.fog_chans <- true
  | Types.Chan_accept { chan; _ } -> (
    match Hashtbl.find_opt t.chans chan with
    | Some c -> c.mc_fuzzy <- true
    | None -> ())
  | Types.Chan_close { chan } ->
    (* The entry may or may not be gone: forget it, and let the fog
       cover a later op on the id either way. *)
    Hashtbl.remove t.chans chan;
    t.fog_chans <- true
  | Types.Chan_send _ | Types.Chan_recv _ ->
    (* Queue state is untracked, so there is nothing to poison. *)
    ()
  | Types.Retire { enclave } ->
    (* Parked, destroyed, or untouched — unknowable. Treat the id as
       possibly gone (existence fog) and possibly revivable. *)
    let stub = adopt_stub t enclave in
    remove_enclave t enclave;
    Hashtbl.replace t.parked enclave stub;
    t.fog_existence <- true
  | Types.Warm_create _ ->
    (* Any parked id may have been revived unseen: its lifecycle is
       now unknown. Keep the parked entries (the revival may also not
       have happened). *)
    let ids = Hashtbl.fold (fun id _ acc -> id :: acc) t.parked [] in
    List.iter (fun id -> mark_unknown t id) ids

let apply_response t ~sender request response =
  match (request, response) with
  | _, Types.Err (Types.Integrity_failure _) -> (
    (* Containment: the EMS terminated the victim. *)
    match Hypertee_ems.Runtime.enclave_of_request request with
    | Some id -> remove_enclave t id
    | None ->
      (* The victim was whoever owned the corrupt frame (EWB path):
         any enclave may be gone now. *)
      t.fog_existence <- true)
  | req, Types.Err Types.No_such_enclave when t.fog_existence -> (
    (* An unattributed containment destroyed this enclave behind the
       model's back: adopt the removal. *)
    match Hypertee_ems.Runtime.enclave_of_request req with
    | Some id -> remove_enclave t id
    | None -> ())
  | Types.Destroy { enclave }, Types.Err Types.No_such_enclave ->
    (* Proof the retire fell back to a destroy: drop the entry. *)
    Hashtbl.remove t.parked enclave
  | _, Types.Err _ -> ()
  | Types.Create { config }, Types.Ok_created { enclave } ->
    let layout = Enclave.make_layout config in
    Hashtbl.replace t.seen_enclave_ids enclave ();
    Hashtbl.replace t.enclaves enclave
      {
        eid = enclave;
        st = Loading;
        layout = Some layout;
        config = Some config;
        heap_cursor = Some (layout.Enclave.heap_base + config.Types.heap_pages);
        shm_cursor = Some layout.Enclave.shm_base;
        measured = Some false;
        attached = [];
        fuzzy_attach = false;
      }
  | (Types.Enter { enclave } | Types.Resume { enclave }), Types.Ok_entered _ ->
    (adopt_stub t enclave).st <- Running
  | Types.Interrupt { enclave; _ }, Types.Ok_unit -> (adopt_stub t enclave).st <- Interrupted
  | Types.Exit { enclave }, Types.Ok_unit ->
    let e = adopt_stub t enclave in
    e.st <- Measured;
    e.measured <- Some true
  | Types.Measure { enclave }, Types.Ok_measure _ ->
    let e = adopt_stub t enclave in
    e.st <- Measured;
    e.measured <- Some true
  | Types.Destroy { enclave }, Types.Ok_unit -> remove_enclave t enclave
  | Types.Alloc { enclave; pages }, Types.Ok_alloc { base_vpn; _ } ->
    let e = adopt_stub t enclave in
    e.heap_cursor <- opt_max e.heap_cursor (base_vpn + pages)
  | Types.Page_fault { enclave; _ }, Types.Ok_alloc { base_vpn; _ } ->
    let e = adopt_stub t enclave in
    e.heap_cursor <- opt_max e.heap_cursor (base_vpn + 1)
  | Types.Free _, Types.Ok_unit -> t.heap_fuzzy <- true
  | Types.Writeback _, Types.Ok_writeback _ -> t.heap_fuzzy <- true
  | Types.Shmget { owner; pages; max_perm }, Types.Ok_shm { shm } ->
    Hashtbl.replace t.seen_shm_ids shm ();
    Hashtbl.replace t.regions shm
      {
        rid = shm;
        rowner = owner;
        rpages = pages;
        rmax = max_perm;
        legal = [ (owner, max_perm) ];
        rattached = [];
        rfuzzy = false;
      }
  | Types.Shmshr { shm; grantee; perm; _ }, Types.Ok_unit -> (
    match Hashtbl.find_opt t.regions shm with
    | Some r ->
      let granted = if r.rmax = Types.Read_only then Types.Read_only else perm in
      r.legal <- (grantee, granted) :: List.remove_assoc grantee r.legal
    | None -> ())
  | Types.Shmat { enclave; shm; _ }, Types.Ok_shmat { base_vpn; pages } ->
    let e = adopt_stub t enclave in
    e.attached <- shm :: List.filter (fun x -> x <> shm) e.attached;
    e.shm_cursor <- Some (base_vpn + pages + 1);
    (match Hashtbl.find_opt t.regions shm with
    | Some r -> r.rattached <- enclave :: List.filter (fun x -> x <> enclave) r.rattached
    | None -> ())
  | Types.Shmdt { enclave; shm }, Types.Ok_unit ->
    (match find_e t enclave with
    | Some e -> e.attached <- List.filter (fun x -> x <> shm) e.attached
    | None -> ());
    (match Hashtbl.find_opt t.regions shm with
    | Some r -> r.rattached <- List.filter (fun x -> x <> enclave) r.rattached
    | None -> ());
    reap_orphans t
  | Types.Shmdes { shm; _ }, Types.Ok_unit -> Hashtbl.remove t.regions shm
  | Types.Chan_open { listener }, Types.Ok_chan { chan; _ } ->
    Hashtbl.replace t.seen_chan_ids chan ();
    Hashtbl.replace t.chans chan
      { mc_listener = listener; mc_initiator = sender; mc_accepted = false; mc_fuzzy = false }
  | Types.Chan_accept { enclave; chan }, Types.Ok_chan _ -> (
    Hashtbl.replace t.seen_chan_ids chan ();
    match Hashtbl.find_opt t.chans chan with
    | Some c -> c.mc_accepted <- true
    | None ->
      (* An open that happened in the fog: adopt a stub whose
         initiator the model never saw. *)
      Hashtbl.replace t.chans chan
        { mc_listener = enclave; mc_initiator = None; mc_accepted = true; mc_fuzzy = true })
  | Types.Chan_close { chan }, Types.Ok_unit -> Hashtbl.remove t.chans chan
  | Types.Retire { enclave }, Types.Ok_unit ->
    (* Parked or destroyed — either way invisible from here on, and
       its channels died with the session. Stash the record so a
       revival can restore what the model knew. *)
    let e = adopt_stub t enclave in
    e.st <- Measured;
    e.measured <- Some true;
    e.attached <- [];
    (match (e.layout, e.config) with
    | Some l, Some c ->
      e.heap_cursor <- Some (l.Enclave.heap_base + c.Types.heap_pages);
      e.shm_cursor <- Some l.Enclave.shm_base
    | _ ->
      e.heap_cursor <- None;
      e.shm_cursor <- None);
    remove_enclave t enclave;
    Hashtbl.replace t.parked enclave e
  | Types.Warm_create _, Types.Ok_created { enclave } ->
    (match Hashtbl.find_opt t.parked enclave with
    | Some e ->
      Hashtbl.remove t.parked enclave;
      e.st <- Measured;
      e.measured <- Some true;
      Hashtbl.replace t.enclaves enclave e
    | None ->
      (* Revived from a park the model never saw (fog). *)
      let e = adopt_stub t enclave in
      e.st <- Measured;
      e.measured <- Some true);
    Hashtbl.replace t.seen_enclave_ids enclave ()
  | _, _ -> ()

let apply t ~sender request result =
  match result with
  | Error Emcall.Timeout -> apply_timeout t request
  | Error (Emcall.Cross_privilege | Emcall.Mailbox_full | Emcall.Busy) -> ()
  | Ok (response, (_ : float)) -> apply_response t ~sender request response

(* --- judging --------------------------------------------------------- *)

let describe_result = function
  | Error Emcall.Cross_privilege -> "rejected: cross-privilege"
  | Error Emcall.Mailbox_full -> "rejected: mailbox full"
  | Error Emcall.Timeout -> "rejected: timeout"
  | Error Emcall.Busy -> "rejected: busy (admission shed)"
  | Ok (resp, (_ : float)) -> (
    match resp with
    | Types.Ok_unit -> "Ok_unit"
    | Types.Ok_created { enclave } -> Printf.sprintf "Ok_created enclave=%d" enclave
    | Types.Ok_entered { enclave } -> Printf.sprintf "Ok_entered enclave=%d" enclave
    | Types.Ok_alloc { base_vpn; pages } ->
      Printf.sprintf "Ok_alloc base_vpn=%d pages=%d" base_vpn pages
    | Types.Ok_writeback { frames; _ } ->
      Printf.sprintf "Ok_writeback frames=%d" (List.length frames)
    | Types.Ok_shm { shm } -> Printf.sprintf "Ok_shm shm=%d" shm
    | Types.Ok_shmat { base_vpn; pages } ->
      Printf.sprintf "Ok_shmat base_vpn=%d pages=%d" base_vpn pages
    | Types.Ok_measure _ -> "Ok_measure"
    | Types.Ok_attest _ -> "Ok_attest"
    | Types.Ok_chan { chan; _ } -> Printf.sprintf "Ok_chan chan=%d" chan
    | Types.Ok_seg { seg = None } -> "Ok_seg (empty)"
    | Types.Ok_seg { seg = Some s } -> Printf.sprintf "Ok_seg %dB" (Bytes.length s)
    | Types.Err e -> "Err: " ^ Types.error_message e)

let describe_expect = function
  | Reject -> "gate rejection: cross-privilege"
  | Accept (d, _) -> d
  | Any -> "(anything)"

let judge t expect result =
  match (expect, result) with
  | Reject, Error Emcall.Cross_privilege -> true
  | Reject, _ -> false
  | _, Error Emcall.Cross_privilege -> false
  (* Back-pressure rejections (full mailbox, admission shed) and
     timeouts are gate-local resource decisions, not EMS semantics. *)
  | _, Error (Emcall.Mailbox_full | Emcall.Timeout | Emcall.Busy) -> true
  | Any, Ok _ -> true
  | Accept ((_ : string), pred), Ok (resp, (_ : float)) -> (
    match resp with
    (* Resource pressure the model does not track. *)
    | Types.Err (Types.Out_of_memory | Types.Out_of_key_ids) -> true
    (* Injected corruption, contained by the EMS. *)
    | Types.Err (Types.Integrity_failure _) -> true
    (* Unattributed containment may have removed the target. *)
    | Types.Err Types.No_such_enclave when t.fog_existence -> true
    | resp -> pred resp)

let observe t ~caller ~batched request result =
  t.calls <- t.calls + 1;
  (* Batched results are no longer adopt-only: the gate recovers the
     realized drain order from the scheduler log and fires batched
     taps in that order, so the model replays the batch exactly as
     the EMS executed it. *)
  ignore (batched : bool);
  let expect =
    if gate_rejects caller request then Reject
    else predict t ~sender:(sender_of caller) request
  in
  if judge t expect result then t.agreed <- t.agreed + 1
  else begin
    t.diverged <- t.diverged + 1;
    if List.length t.kept < kept_cap then
      t.kept <-
        {
          index = t.calls;
          opcode = Types.opcode_of_request request;
          expected = describe_expect expect;
          observed = describe_result result;
        }
        :: t.kept
  end;
  apply t ~sender:(sender_of caller) request result

let tap t : Emcall.tap = fun ~caller ~batched request result -> observe t ~caller ~batched request result

let observed t = t.calls
let agreements t = t.agreed
let divergence_count t = t.diverged
let divergences t = List.rev t.kept

let pp_divergence fmt d =
  Format.fprintf fmt "call #%d %s: expected %s, observed %s" d.index
    (Types.opcode_name d.opcode) d.expected d.observed

let summary t =
  Printf.sprintf "oracle: %d call(s) observed, %d agreed, %d diverged" t.calls t.agreed
    t.diverged
