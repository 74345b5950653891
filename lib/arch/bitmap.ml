type t = {
  mem : Phys_mem.t;
  base : int; (* first frame of the bitmap region *)
  region : int; (* frames occupied by the bitmap *)
  lock : Mutex.t;
      (* Bits are packed eight frames to a byte, so [update] is a
         read-modify-write of a byte shared between adjacent frames:
         two domains flipping neighbouring frames' bits at once would
         lose one flip without the lock. A platform runs on one
         domain, so the lock is safety code. [get] stays lockless — a
         single byte read observes its own frame's bit correctly
         regardless of concurrent updates to sibling bits. *)
}

let bits_per_frame = Hypertee_util.Units.page_size * 8

let create mem =
  let total = Phys_mem.frames mem in
  let region = (total + bits_per_frame - 1) / bits_per_frame in
  let base = total - region in
  for f = base to total - 1 do
    match Phys_mem.owner mem f with
    | Phys_mem.Free -> Phys_mem.set_owner mem f Phys_mem.Bitmap_region
    | _ -> invalid_arg "Bitmap.create: trailing frames already in use"
  done;
  let t = { mem; base; region; lock = Mutex.create () } in
  t

let base_frame t = t.base
let region_frames t = t.region

let locate t frame =
  if frame < 0 || frame >= Phys_mem.frames t.mem then invalid_arg "Bitmap: frame out of range";
  let byte_index = frame / 8 in
  let holder = t.base + (byte_index / Hypertee_util.Units.page_size) in
  let off = byte_index mod Hypertee_util.Units.page_size in
  (holder, off, frame mod 8)

let get t ~frame =
  let holder, off, bit = locate t frame in
  let b = Phys_mem.read_sub t.mem ~frame:holder ~off ~len:1 in
  Char.code (Bytes.get b 0) land (1 lsl bit) <> 0

let update t ~frame f =
  Mutex.protect t.lock @@ fun () ->
  let holder, off, bit = locate t frame in
  let b = Phys_mem.read_sub t.mem ~frame:holder ~off ~len:1 in
  let v = f (Char.code (Bytes.get b 0)) bit in
  Phys_mem.write_sub t.mem ~frame:holder ~off (Bytes.make 1 (Char.chr v))

let set t ~frame = update t ~frame (fun v bit -> v lor (1 lsl bit))
let clear t ~frame = update t ~frame (fun v bit -> v land lnot (1 lsl bit))

let popcount t =
  let acc = ref 0 in
  for f = 0 to Phys_mem.frames t.mem - 1 do
    if get t ~frame:f then incr acc
  done;
  !acc

(* The bitmap region protects itself: its own frames are marked as
   enclave memory so untrusted software cannot read or corrupt the
   bits (Sec. IV-B). *)
let create mem =
  let t = create mem in
  for f = t.base to t.base + t.region - 1 do
    set t ~frame:f
  done;
  t
