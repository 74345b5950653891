(** Host-application SDK (paper Sec. III-B, Fig. 2).

    What the HyperTEE SDK generates around a programmer's enclave:
    the HostApp-side launch sequence (ECREATE, EADD of each code/data
    page, EMEAS), the expected measurement the build system records
    next to the binary, and entry/exit. The OS-privilege primitives
    are issued through the OS (caller [Os_kernel]), as a host
    application would via syscalls.

    The launch is written once, as a {!step} value that lists each
    EMCall and what follows its response. {!run} issues it through
    the gate; a load driver can run the same value through a timed
    queue, extended with calls of its own by {!bind}. *)

(** An image as the build emits it: pages, static configuration and
    the measurement recorded at build time. Only {!image_of_code}
    makes one, so the measurement matches the fields it was computed
    from; {!launch} reports bytes changed later as tampering. *)
type image = private {
  code : bytes;  (** enclave text *)
  data : bytes;  (** initialised data *)
  config : Hypertee_ems.Types.enclave_config;
  measurement : bytes;  (** see {!expected_measurement} *)
}

(** [image_of_code ?config ~code ~data ()] builds an image, growing
    [config]'s page counts to fit the byte sizes, and measures it. *)
val image_of_code : ?config:Hypertee_ems.Types.enclave_config -> code:bytes -> data:bytes -> unit -> image

(** [expected_measurement image] — what the compiler records next to
    the binary (Fig. 2's "measurement" output); remote verifiers
    compare quotes against this. Computed once, by {!image_of_code}. *)
val expected_measurement : image -> bytes

(** The exact EADD sequence [launch] issues — [(vpn, data,
    executable)] per page, in measurement order. *)
val add_plan : image -> (int * bytes * bool) list

(** {2 The protocol as a value} *)

(** A client protocol over EMCalls, ending in a value of type ['a].
    - [Done v]: the protocol succeeded with [v].
    - [Fail msg]: it stopped; [msg] says why.
    - [Created (id, next)]: from here on the driver owns enclave
      [id]. A driver that stops before [Done] (a [Fail], a gate
      rejection, an abandoned session) destroys it, so a launch that
      fails halfway leaves no live enclave whose id no caller knows.
    - [Call (caller, request, k)]: issue [request] as [caller]; [k]
      maps EMS's response to the rest of the protocol. *)
type 'a step =
  | Done of 'a
  | Fail of string
  | Created of Hypertee_ems.Types.enclave_id * 'a step
  | Call of
      Hypertee_cs.Emcall.caller
      * Hypertee_ems.Types.request
      * (Hypertee_ems.Types.response -> 'a step)

(** [bind step f] runs [step], then the protocol [f] makes of its
    result. An enclave [step] created stays owned through [f]. *)
val bind : 'a step -> ('a -> 'b step) -> 'b step

(** [expect caller request ok] — one call whose awaited response [ok]
    maps to [Some next]. Any response [ok] maps to [None] fails: an
    [Err] with EMS's error message, any other shape as an unexpected
    response of the primitive. *)
val expect :
  Hypertee_cs.Emcall.caller ->
  Hypertee_ems.Types.request ->
  (Hypertee_ems.Types.response -> 'a step option) ->
  'a step

(** The cold launch: ECREATE, one EADD per {!add_plan} entry, EMEAS.
    Ends in the enclave id once EMS's measurement equals
    {!expected_measurement}; a mismatch (the OS rewrote the binary in
    flight) fails with a message that starts with ["measurement
    mismatch"]. *)
val launch_steps : image -> Hypertee_ems.Types.enclave_id step

(** EWARM with the image's measurement; on a pool miss, the cold
    {!launch_steps}. Ends in the enclave and which path served it. *)
val warm_launch_steps : image -> (Hypertee_ems.Types.enclave_id * [ `Warm | `Cold ]) step

(** [run platform step] — the gate interpreter: issues each call
    through [Platform.invoke_timed] in order and returns the result
    with the sum of the calls' modelled round trips (ns). A gate
    rejection fails the protocol with its reason. On failure, an
    enclave the step had {!Created} is destroyed, best effort. *)
val run : Platform.t -> 'a step -> ('a * float, string) result

(** {2 Direct calls: [run] over small step values, without the time} *)

(** [launch platform image] runs {!launch_steps} and returns the
    enclave id. *)
val launch : Platform.t -> image -> (Hypertee_ems.Types.enclave_id, string) result

(** [warm_launch platform image] — the enclave-as-a-service fast
    path: EWARM with the image's expected measurement revives a
    parked enclave if the shard's warm pool holds one ([`Warm]); a
    pool miss falls back to the full cold {!launch} ([`Cold]).
    Either way the enclave's measurement is byte-identical to
    {!expected_measurement}, so attestation is unaffected. *)
val warm_launch :
  Platform.t -> image -> (Hypertee_ems.Types.enclave_id * [ `Warm | `Cold ], string) result

(** [retire platform ~enclave] — ERETIRE: park a quiescent Measured
    enclave in its shard's warm pool (heap reset, unmeasured pages
    scrubbed, measurement re-verified against the resident pages); if
    the enclave is not parkable EMS falls back to a full EDESTROY.
    Either way the id is gone from the caller's perspective. *)
val retire : Platform.t -> enclave:Hypertee_ems.Types.enclave_id -> (unit, string) result

(** [enter platform ~enclave] — EENTER; gives a running session. *)
val enter : Platform.t -> enclave:Hypertee_ems.Types.enclave_id -> (Session.t, string) result

(** [resume platform ~enclave] — ERESUME after an interrupt parked
    the enclave (Sec. III-B); gives back a running session. *)
val resume : Platform.t -> enclave:Hypertee_ems.Types.enclave_id -> (Session.t, string) result

(** [destroy platform ~enclave] — EDESTROY via the OS. *)
val destroy : Platform.t -> enclave:Hypertee_ems.Types.enclave_id -> (unit, string) result

(** [host_write_staging platform ~enclave ~off data] /
    [host_read_staging] — the HostApp side of the staging window used
    to pass encrypted inputs in and results out (Sec. IV-A "Data
    movement between HostApp and Enclave"). The window is enclave
    memory mapped shared with the host. *)
val host_write_staging :
  Platform.t -> enclave:Hypertee_ems.Types.enclave_id -> off:int -> bytes -> (unit, string) result

val host_read_staging :
  Platform.t -> enclave:Hypertee_ems.Types.enclave_id -> off:int -> len:int -> (bytes, string) result
