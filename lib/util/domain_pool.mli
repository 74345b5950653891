(** A bounded pool of worker domains for barrier-style fan-out, the
    engine under [Hypertee_sim.Exec.map].

    One pool serves one submitting domain at a time: [map] hands the
    pool one job per input and blocks until all have run, helping to
    drain the queue itself while it waits. With [domains <= 1] every
    call degenerates to sequential inline application in input order
    — no locks, no spawned domains.

    Nested submissions (a job calling [map] again) are safe: they run
    inline on the domain that encountered them. Concurrent top-level
    submissions from distinct domains are not supported. *)

type t

val shared : domains:int -> t
(** [shared ~domains] is the process-wide pool of that size: total
    parallelism [domains], the submitter included, so it spawns
    [domains - 1] workers on first request and reuses them forever
    after. Live domains are a hard-capped resource (OCaml refuses to
    spawn past ~128), so there is no per-caller pool. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f xs] is [Array.map f xs] with the element applications
    distributed over the pool; result order matches input order. The
    first exception any application raised is re-raised on the
    submitter once every application has finished. Inline
    (sequential, input order) when the pool size is 1, there is a
    single input, or the caller is itself running a pool job. *)
