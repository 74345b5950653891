module Phys_mem = Hypertee_arch.Phys_mem
module Page_table = Hypertee_arch.Page_table
module Pte = Hypertee_arch.Pte

type process = {
  pid : int;
  page_table : Page_table.t;
  mutable mapped_pages : int;
  mutable brk_vpn : int;
}

type t = {
  mem : Phys_mem.t;
  mutable next_pid : int;
  mutable procs : process list;
  mutable ems_refills : int;
  lock : Mutex.t;
      (* The CS OS free list is the one allocator every shard's pool
         refills from: find_free + set_owner must be atomic. A
         platform's shards drain on one domain, so the lock is safety
         code against ever handing two callers the same frame. *)
}

let create mem = { mem; next_pid = 1; procs = []; ems_refills = 0; lock = Mutex.create () }
let mem t = t.mem

let alloc_frames t ~n =
  Mutex.protect t.lock @@ fun () ->
  match Phys_mem.find_free t.mem ~n with
  | Some frames ->
    List.iter (fun f -> Phys_mem.set_owner t.mem f Phys_mem.Cs_os) frames;
    frames
  | None -> (
    (* Partial allocation: take what exists. *)
    let rec take n =
      if n = 0 then []
      else
        match Phys_mem.find_free t.mem ~n:1 with
        | Some [ f ] ->
          Phys_mem.set_owner t.mem f Phys_mem.Cs_os;
          f :: take (n - 1)
        | Some _ | None -> []
    in
    take n)

let free_frames t ~frames =
  Mutex.protect t.lock @@ fun () ->
  List.iter
    (fun f ->
      Phys_mem.zero t.mem ~frame:f;
      Phys_mem.set_owner t.mem f Phys_mem.Free)
    frames

let ems_refill_requests t = t.ems_refills

let pool_request t ~n =
  Mutex.protect t.lock (fun () -> t.ems_refills <- t.ems_refills + 1);
  alloc_frames t ~n

(* Zero on the way back: EMS pool frames arrive already zeroed, but
   an enclave's staging window is host memory the tenant wrote in
   plaintext, and the next allocation hands the lowest free frames
   straight to another enclave. *)
let pool_return = free_frames

let spawn t =
  let alloc () =
    match alloc_frames t ~n:1 with [ f ] -> f | _ -> failwith "out of memory"
  in
  let page_table = Page_table.create t.mem ~node_owner:Phys_mem.Cs_os ~alloc in
  let p = { pid = t.next_pid; page_table; mapped_pages = 0; brk_vpn = 0x1000 } in
  t.next_pid <- t.next_pid + 1;
  t.procs <- p :: t.procs;
  p

let malloc_pages t p ~pages =
  let frames = alloc_frames t ~n:pages in
  if List.length frames < pages then begin
    free_frames t ~frames;
    None
  end
  else begin
    let base = p.brk_vpn in
    List.iteri
      (fun i frame ->
        Page_table.map p.page_table ~vpn:(base + i)
          (Pte.leaf ~ppn:frame ~r:true ~w:true ~x:false ~key_id:0))
      frames;
    p.brk_vpn <- base + pages;
    p.mapped_pages <- p.mapped_pages + pages;
    Some base
  end

let free_pages t p ~vpn ~pages =
  for i = 0 to pages - 1 do
    match Page_table.lookup p.page_table ~vpn:(vpn + i) with
    | Some pte ->
      Page_table.unmap p.page_table ~vpn:(vpn + i);
      free_frames t ~frames:[ pte.Pte.ppn ];
      p.mapped_pages <- p.mapped_pages - 1
    | None -> ()
  done

let free_count t = Phys_mem.count_owned t.mem (fun o -> o = Phys_mem.Free)
let processes t = t.procs
