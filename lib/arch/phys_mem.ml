type owner =
  | Free
  | Cs_os
  | Pool
  | Enclave of int
  | Shared of int
  | Page_table of int
  | Ems_private
  | Bitmap_region

let page_size = Hypertee_util.Units.page_size

type t = {
  owners : owner array;
  contents : bytes option array; (* lazily allocated *)
  versions : int array; (* per-frame write version, see [version] *)
  mutable low_free : int;
      (* no frame below this one is [Free]: [find_free] starts here
         instead of scanning the EMS carve-out on every call *)
}

let create ~frames =
  if frames <= 0 then invalid_arg "Phys_mem.create: need at least one frame";
  {
    owners = Array.make frames Free;
    contents = Array.make frames None;
    versions = Array.make frames 0;
    low_free = 0;
  }

let frames t = Array.length t.owners

let check_frame t frame =
  if frame < 0 || frame >= frames t then invalid_arg "Phys_mem: frame out of range"

let owner t frame =
  check_frame t frame;
  t.owners.(frame)

let set_owner t frame o =
  check_frame t frame;
  t.owners.(frame) <- o;
  match o with Free -> if frame < t.low_free then t.low_free <- frame | _ -> ()

let count_owned t pred = Array.fold_left (fun acc o -> if pred o then acc + 1 else acc) 0 t.owners

(* Bump the frame's write version. Every mutation entry point — and
   [borrow], which hands out a mutable alias — counts as a write;
   the memory-encryption engine's verified-MAC cache keys its entries
   on this counter, so any path that could have changed the DRAM
   bytes forces the next integrity check to really run. A platform's
   memory is touched from the one domain that runs the platform, so
   a plain int store per frame is enough. *)
let touch t frame = t.versions.(frame) <- t.versions.(frame) + 1

let version t ~frame =
  check_frame t frame;
  t.versions.(frame)

let materialize t frame =
  match t.contents.(frame) with
  | Some b -> b
  | None ->
    let b = Bytes.make page_size '\000' in
    t.contents.(frame) <- Some b;
    b

let read t ~frame =
  check_frame t frame;
  match t.contents.(frame) with
  | Some b -> Bytes.copy b
  | None -> Bytes.make page_size '\000'

let write t ~frame data =
  check_frame t frame;
  if Bytes.length data <> page_size then invalid_arg "Phys_mem.write: data must be one page";
  touch t frame;
  t.contents.(frame) <- Some (Bytes.copy data)

(* Expose the live underlying page so the memory-encryption engine can
   encrypt/decrypt DRAM in place instead of copying pages through the
   API. Materialises on first touch; callers own the aliasing rules
   (see DESIGN.md "Data-plane performance"). The returned buffer is
   mutable, so the frame's write version is bumped: a physical
   attacker flipping bits through this alias invalidates any verified
   MAC-cache line covering the frame. *)
let borrow t ~frame =
  check_frame t frame;
  touch t frame;
  materialize t frame

(* Read-only borrow: the engine's decrypt/verify paths promise not to
   write through the result, so the version is left alone and a hot
   line stays cache-verified across repeated reads. *)
let borrow_ro t ~frame =
  check_frame t frame;
  materialize t frame

let read_into t ~frame ~off ~len dst ~dst_off =
  check_frame t frame;
  if off < 0 || len < 0 || off + len > page_size then invalid_arg "Phys_mem.read_into: bad slice";
  if dst_off < 0 || dst_off + len > Bytes.length dst then
    invalid_arg "Phys_mem.read_into: destination out of bounds";
  match t.contents.(frame) with
  | Some b -> Bytes.blit b off dst dst_off len
  | None -> Bytes.fill dst dst_off len '\000'

let read_sub t ~frame ~off ~len =
  check_frame t frame;
  if off < 0 || len < 0 || off + len > page_size then invalid_arg "Phys_mem.read_sub: bad slice";
  match t.contents.(frame) with
  | Some b -> Bytes.sub b off len
  | None -> Bytes.make len '\000'

let write_sub t ~frame ~off data =
  check_frame t frame;
  let len = Bytes.length data in
  if off < 0 || off + len > page_size then invalid_arg "Phys_mem.write_sub: bad slice";
  touch t frame;
  let b = materialize t frame in
  Bytes.blit data 0 b off len

let zero t ~frame =
  check_frame t frame;
  match t.contents.(frame) with
  | Some b ->
    touch t frame;
    Bytes.fill b 0 page_size '\000'
  | None -> ()

let read_u64 t ~frame ~off =
  check_frame t frame;
  if off < 0 || off + 8 > page_size then invalid_arg "Phys_mem.read_u64: bad offset";
  match t.contents.(frame) with
  | Some b -> Hypertee_util.Bytes_ext.get_u64_le b off
  | None -> 0L

let write_u64 t ~frame ~off v =
  check_frame t frame;
  if off < 0 || off + 8 > page_size then invalid_arg "Phys_mem.write_u64: bad offset";
  touch t frame;
  Hypertee_util.Bytes_ext.set_u64_le (materialize t frame) off v

let is_free = function Free -> true | _ -> false

(* The lowest [n] free frames, scanning up from [low_free]. The first
   free frame the scan meets becomes the new bound: everything below
   it was just seen taken. *)
let find_free t ~n =
  let total = frames t in
  let rec first i = if i < total && not (is_free t.owners.(i)) then first (i + 1) else i in
  t.low_free <- first t.low_free;
  let acc = ref [] and found = ref 0 in
  let i = ref t.low_free in
  while !found < n && !i < total do
    if is_free t.owners.(!i) then begin
      acc := !i :: !acc;
      incr found
    end;
    incr i
  done;
  if !found = n then Some (List.rev !acc) else None

let pp_owner fmt = function
  | Free -> Format.pp_print_string fmt "free"
  | Cs_os -> Format.pp_print_string fmt "cs-os"
  | Pool -> Format.pp_print_string fmt "pool"
  | Enclave id -> Format.fprintf fmt "enclave:%d" id
  | Shared id -> Format.fprintf fmt "shared:%d" id
  | Page_table id -> Format.fprintf fmt "pt:%d" id
  | Ems_private -> Format.pp_print_string fmt "ems"
  | Bitmap_region -> Format.pp_print_string fmt "bitmap"
