(* A bounded pool of worker domains for fork/join fan-out.

   The pool serves one shape of work: [Exec.map] hands it a sweep's
   independent points (each builds and drives its own platform) and
   blocks until every point has finished. So the pool exposes exactly
   that — [map] — and nothing stateful leaks across batches.

   Design constraints, in order:

   - With [domains <= 1] every call degenerates to plain sequential
     application on the calling domain, in input order, with no
     locking and no spawned domain.

   - Nested submissions must not deadlock. A sweep point running on a
     worker may itself reach another sweep; rather than batch-tagged
     completion counting we run nested batches inline on the domain
     that encountered them (detected via a domain-local flag). The
     outer sweep already owns the cores, so inner parallelism would
     only add contention anyway.

   - Worker failures must not be lost: the first exception raised by
     any job is re-raised on the submitting domain after the barrier,
     so callers see the same exception surface as sequential code. *)

type job = unit -> unit

type t = {
  size : int;  (* total parallelism including the submitting domain *)
  lock : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable queue : job list;  (* jobs not yet picked up, submission order *)
  mutable outstanding : int;  (* queued + running jobs of the live batch *)
  mutable failure : exn option;  (* first job exception, re-raised at the barrier *)
}

(* Set while a domain is executing pool jobs; nested submissions
   observe it and fall back to inline execution. *)
let in_worker : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

(* Run one job with the in-worker flag up, then retire it from the
   batch. Called without [t.lock]; returns with it held. *)
let run_job t job =
  let flag = Domain.DLS.get in_worker in
  flag := true;
  (try job ()
   with e ->
     Mutex.lock t.lock;
     if t.failure = None then t.failure <- Some e;
     Mutex.unlock t.lock);
  flag := false;
  Mutex.lock t.lock;
  t.outstanding <- t.outstanding - 1;
  if t.outstanding = 0 then Condition.broadcast t.work_done

let rec worker_loop t =
  Mutex.lock t.lock;
  while t.queue = [] do
    Condition.wait t.work_ready t.lock
  done;
  let job = List.hd t.queue in
  t.queue <- List.tl t.queue;
  Mutex.unlock t.lock;
  run_job t job;
  Mutex.unlock t.lock;
  worker_loop t

let make ~size =
  let t =
    {
      size;
      lock = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      queue = [];
      outstanding = 0;
      failure = None;
    }
  in
  (* The submitting domain participates in draining, so [size] total
     parallelism needs [size - 1] spawned workers. They live for the
     rest of the process. *)
  for _ = 2 to size do
    ignore (Domain.spawn (fun () -> worker_loop t))
  done;
  t

(* One process-wide pool per size. Domains are a hard-capped resource
   (OCaml refuses to spawn past ~128 live domains), so every sweep of
   a given width shares the same workers rather than spawning its
   own. *)
let shared_lock = Mutex.create ()
let shared_pools : (int, t) Hashtbl.t = Hashtbl.create 4

let shared ~domains =
  let size = Stdlib.max 1 domains in
  Mutex.protect shared_lock (fun () ->
      match Hashtbl.find_opt shared_pools size with
      | Some t -> t
      | None ->
        let t = make ~size in
        Hashtbl.replace shared_pools size t;
        t)

let run_all t jobs =
  let n = Array.length jobs in
  if n = 0 then ()
  else if t.size <= 1 || n = 1 || !(Domain.DLS.get in_worker) then
    Array.iter (fun job -> job ()) jobs
  else begin
    Mutex.lock t.lock;
    t.failure <- None;
    t.outstanding <- t.outstanding + n;
    t.queue <- t.queue @ Array.to_list jobs;
    Condition.broadcast t.work_ready;
    (* Help drain: the submitter works the queue alongside the
       workers instead of blocking immediately. *)
    let rec help () =
      match t.queue with
      | job :: rest ->
        t.queue <- rest;
        Mutex.unlock t.lock;
        run_job t job;
        help ()
      | [] ->
        while t.outstanding > 0 do
          Condition.wait t.work_done t.lock
        done
    in
    help ();
    let failure = t.failure in
    t.failure <- None;
    Mutex.unlock t.lock;
    match failure with Some e -> raise e | None -> ()
  end

let map t f inputs =
  let n = Array.length inputs in
  if n = 0 then [||]
  else begin
    (* Each slot is written by exactly one job, so plain array stores
       are race-free under the OCaml memory model; the [run_all]
       barrier publishes them to the submitter. *)
    let results = Array.make n None in
    run_all t (Array.init n (fun i () -> results.(i) <- Some (f inputs.(i))));
    Array.map (function Some v -> v | None -> assert false) results
  end
