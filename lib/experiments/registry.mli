(** Every experiment the CLI runs, as one list.

    An entry names a run, documents it in one line, and carries its
    default seed and workload sizes, a printer to an [out_channel],
    an optional artifact writer, and a clean/dirty verdict. The CLI
    builds one subcommand per entry, [all] runs {!all} in order, and
    the tests read the same list, so a run has one definition and
    one default seed. *)

(** The clock an entry's numbers are on: [Modelled] virtual time is
    deterministic per seed, so the output is byte-identical run to
    run; [Host] numbers are wall-clock and vary by machine. *)
type clock = Modelled | Host

(** Options an entry accepts beyond seed, size and output file:
    [Deep] MAC-verifies every mapped page in the invariant sweep;
    [Baseline] gates against a previously written perf JSON. *)
type extra = Deep | Baseline

type params = {
  seed : int64;
  quick : bool;  (** CI-sized run *)
  size : int;  (** the entry's quick or full size, 0 when it has none *)
  deep : bool;
  baseline : string option;
}

type 'a spec = {
  name : string;
  doc : string;
  clock : clock;
  seed : int64 option;  (** default seed; [None] when the run draws no randomness *)
  sizes : (int * int) option;  (** (quick, full) workload size, if it has one *)
  extras : extra list;
  run : params -> out_channel -> 'a;  (** runs and prints the report *)
  write : (string * (string -> 'a -> unit)) option;
      (** what the artifact is, and how to write it to a path *)
  clean : 'a -> bool;  (** the verdict that sets the exit code *)
}

type t = Entry : 'a spec -> t

(** The paper's tables and figures: [table1]–[table6], [fig6]–[fig12]
    (with [fig8a]/[fig8b]) and [ablations]. *)
val paper : t list

(** The [all] sweep: {!paper} then [chaos] and [scale]. Every entry
    is [Modelled], so the sweep's output is deterministic. *)
val all : t list

(** {!all} followed by every other run. *)
val entries : t list

(** [params entry ~quick ()] — the entry's default seed (unless
    [seed] is given) and its quick or full size. *)
val params :
  t -> ?seed:int64 -> ?deep:bool -> ?baseline:string -> quick:bool -> unit -> params

(** [execute entry params ?out oc] runs the entry, printing to [oc],
    writes its artifact to [out] when given, and returns the
    verdict. *)
val execute : t -> params -> ?out:string -> out_channel -> bool
