(* Execution-mode switch for sweeps of independent platforms.

   A platform always runs on the domain that created it, one shard
   drained after another in gate order: bit-identical traces,
   reproducible fault replays, a happy differential oracle. What can
   run in parallel is a sweep: cloud's load points, chaos's fault
   rates and the scale grid each build one fresh platform per point,
   and [map] fans those points over worker domains, one platform per
   domain, with results in input order so the output is byte-identical.

   The mode is set process-wide through the HYPERTEE_EXEC environment
   variable:

     HYPERTEE_EXEC=deterministic   (the default: [map] is List.map)
     HYPERTEE_EXEC=parallel        (recommended_domain_count domains)
     HYPERTEE_EXEC=parallel:4      (exactly 4 domains) *)

type mode = Deterministic | Parallel of { domains : int }

let to_string = function
  | Deterministic -> "deterministic"
  | Parallel { domains } -> Printf.sprintf "parallel:%d" domains

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "" | "deterministic" | "det" | "1" -> Some Deterministic
  | "parallel" | "par" ->
    Some (Parallel { domains = Domain.recommended_domain_count () })
  | s -> (
    match String.index_opt s ':' with
    | Some i
      when String.sub s 0 i = "parallel" || String.sub s 0 i = "par" -> (
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some n when n >= 1 -> Some (Parallel { domains = n })
      | _ -> None)
    | _ -> (
      match int_of_string_opt s with
      | Some 1 -> Some Deterministic
      | Some n when n > 1 -> Some (Parallel { domains = n })
      | _ -> None))

let env_var = "HYPERTEE_EXEC"

(* Resolved once: the mode must not flip between the sweeps of one
   process. *)
let forced =
  lazy
    (match Sys.getenv_opt env_var with
    | None | Some "" -> None
    | Some s -> (
      match of_string s with
      | Some m -> Some m
      | None ->
        Printf.eprintf "hypertee: ignoring unparsable %s=%S\n%!" env_var s;
        None))

let default_mode () = match Lazy.force forced with Some m -> m | None -> Deterministic

let map f xs =
  match default_mode () with
  | Deterministic -> List.map f xs
  | Parallel { domains } ->
    Array.to_list
      (Hypertee_util.Domain_pool.map (Hypertee_util.Domain_pool.shared ~domains) f
         (Array.of_list xs))
