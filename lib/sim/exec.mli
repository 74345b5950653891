(** Process-wide execution mode for sweeps: deterministic (every
    point on the calling domain, the reference) or parallel, where
    {!map} fans a sweep's independent platforms over OCaml 5 domains,
    one platform per domain. A platform itself always runs on the
    domain that created it.

    The HYPERTEE_EXEC environment variable ([deterministic],
    [parallel], [parallel:<n>]) selects the mode without
    recompiling. *)

type mode = Deterministic | Parallel of { domains : int }

val to_string : mode -> string
val of_string : string -> mode option

val env_var : string
(** ["HYPERTEE_EXEC"]. *)

val default_mode : unit -> mode
(** The environment override, or [Deterministic]. Resolved once per
    process. *)

val map : ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] is [List.map f xs] in [Deterministic] mode. Under
    [Parallel { domains = n }] the applications run on
    {!Hypertee_util.Domain_pool.shared}[ ~domains:n]; results keep
    input order. Each [f x] must own everything it mutates (a sweep
    point builds its own platform), so both modes return the same
    values. *)
