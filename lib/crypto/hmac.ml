let block = 64 (* SHA-256 block size *)

(* Reused pad buffer and contexts, one set per domain: the padded key
   is XORed to the ipad in place, then flipped to the opad by XORing
   with 0x36 lxor 0x5c. Only the inner digest and the result
   allocate. Domain-local storage keeps the reuse while letting
   platforms on different domains derive keys concurrently. *)
type scratch = { pad : bytes; inner : Sha256.ctx; outer : Sha256.ctx; inner_digest : bytes }

let scratch : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        pad = Bytes.create block;
        inner = Sha256.init ();
        outer = Sha256.init ();
        inner_digest = Bytes.create 32;
      })

let hmac ~key msg =
  let { pad; inner; outer; inner_digest } = Domain.DLS.get scratch in
  let key =
    if Bytes.length key > block then Sha256.digest key else key
  in
  Bytes.fill pad 0 block '\000';
  Bytes.blit key 0 pad 0 (Bytes.length key);
  for i = 0 to block - 1 do
    Bytes.set pad i (Char.chr (Char.code (Bytes.get pad i) lxor 0x36))
  done;
  Sha256.reset inner;
  Sha256.update inner pad;
  Sha256.update inner msg;
  Sha256.finalize_into inner inner_digest ~off:0;
  for i = 0 to block - 1 do
    Bytes.set pad i (Char.chr (Char.code (Bytes.get pad i) lxor (0x36 lxor 0x5c)))
  done;
  Sha256.reset outer;
  Sha256.update outer pad;
  Sha256.update outer inner_digest;
  Sha256.finalize outer

let extract ~salt ikm =
  let salt = if Bytes.length salt = 0 then Bytes.make 32 '\000' else salt in
  hmac ~key:salt ikm

let expand ~prk ~info len =
  if len > 255 * 32 then invalid_arg "Hmac.expand: length too large";
  let out = Buffer.create len in
  let prev = ref Bytes.empty in
  let counter = ref 1 in
  while Buffer.length out < len do
    let msg = Bytes.create (Bytes.length !prev + Bytes.length info + 1) in
    Bytes.blit !prev 0 msg 0 (Bytes.length !prev);
    Bytes.blit info 0 msg (Bytes.length !prev) (Bytes.length info);
    Bytes.set msg (Bytes.length msg - 1) (Char.chr !counter);
    let t = hmac ~key:prk msg in
    prev := t;
    incr counter;
    Buffer.add_bytes out t
  done;
  Bytes.sub (Buffer.to_bytes out) 0 len

let derive ~ikm ~salt ~info len = expand ~prk:(extract ~salt ikm) ~info:(Bytes.of_string info) len
