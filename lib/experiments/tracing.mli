(** Traced experiment runs and the platform metrics report — the
    backing for [hypertee trace] and [hypertee metrics].

    {!run} installs a fresh {!Hypertee_obs.Trace} tracer, replays a
    scaled-down version of one of the repo's experiments under it,
    writes the resulting timeline as Chrome [trace_event] JSON
    (loadable in [chrome://tracing] / [ui.perfetto.dev]) and prints
    the ASCII span summary. The tracer is uninstalled even if the
    experiment raises, so a failed traced run never leaves global
    tracing enabled behind the caller's back.

    {!metrics} drives a mixed management workload against a sharded
    platform and renders everything {!Hypertee.Platform.publish_metrics}
    snapshots — the gate, the encryption engine, each shard's
    mailbox / scheduler / runtime — plus an EMCall latency histogram. *)

(** Which experiment to trace:
    - [Fig6] — the discrete-event queueing model (CS generator cores
      on gate tracks, EMS service slots on sim tracks);
    - [Fig7] — each rv8 profile's enclave primitive sequence (create,
      page loads, measurement, EALLOC traffic, teardown) replayed
      through the real platform;
    - [Chaos] — one fault-sweep point at rate 0.05 (EMCall spans plus
      fault / retry / watchdog instants);
    - [Scale] — a batched multi-shard point (amortized transport
      visible in the span widths);
    - [Channel] — an attested secure-channel session on a two-shard
      platform (docs/PROTOCOL.md): three-flight handshake markers,
      record traffic with rekeys, orderly close. *)
type target = Fig6 | Fig7 | Chaos | Scale | Channel

val target_names : string list
val target_of_string : string -> target option
val target_name : target -> string

(** [run ?out ?quick ?seed ?path target] — trace one experiment,
    write Chrome JSON to [path] (default ["trace.json"]), print the
    summary to [out] (default [stdout]). [quick] shrinks the workload
    (CI-sized). Returns the tracer for callers that want to inspect
    the spans (tests). *)
val run :
  ?out:out_channel ->
  ?quick:bool ->
  ?seed:int64 ->
  ?path:string ->
  target ->
  Hypertee_obs.Trace.t

(** [metrics ?out ~seed ~ops ()] — run [ops] mixed primitives on a
    fresh 2-shard platform, then render the full metrics registry to
    [out]. Returns the registry. *)
val metrics : ?out:out_channel -> seed:int64 -> ops:int -> unit -> Hypertee_obs.Metrics.t
