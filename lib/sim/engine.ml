type t = {
  queue : (t -> unit) Event_queue.t;
  mutable clock : float;
  mutable processed : int;
}

let create () = { queue = Event_queue.create (); clock = 0.0; processed = 0 }
let now t = t.clock

let at t ~time f =
  if time < t.clock then invalid_arg "Engine.at: time in the past";
  Event_queue.push t.queue ~time f

let after t ~delay f =
  if delay < 0.0 then invalid_arg "Engine.after: negative delay";
  Event_queue.push t.queue ~time:(t.clock +. delay) f

let run ?until t =
  let continue = ref true in
  while !continue do
    (* Peek before popping: an event beyond [until] stays queued, so
       a later [run] resumes exactly where this one stopped. *)
    match Event_queue.peek_time t.queue with
    | None -> continue := false
    | Some time -> (
      match until with
      | Some limit when time > limit ->
        t.clock <- limit;
        continue := false
      | Some _ | None ->
        let time, f =
          match Event_queue.pop t.queue with Some e -> e | None -> assert false
        in
        t.clock <- time;
        t.processed <- t.processed + 1;
        f t)
  done;
  t.clock

let processed t = t.processed

(* Make the tracer read simulated time: spans pushed/popped while the
   engine runs are stamped with the event clock. *)
let bind_tracer t tracer =
  Hypertee_obs.Trace.set_clock tracer (Some (fun () -> t.clock))
