(* SHA-256 per FIPS 180-4. 32-bit words are carried in native ints.
   [Reference] retains the original kernel, which masks every additive
   step to 32 bits: the qcheck oracle and the perf-harness baseline. *)

let digest_size = 32

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array; (* 8 state words *)
  buf : bytes; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total bytes absorbed *)
  w : int array; (* message schedule scratch *)
}

let iv =
  [|
    0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
    0x1f83d9ab; 0x5be0cd19;
  |]

let init () =
  { h = Array.copy iv; buf = Bytes.create 64; buf_len = 0; total = 0; w = Array.make 64 0 }

(* Rewind a context to the freshly-initialised state so hot callers
   (HMAC, Merkle) can reuse one allocation. *)
let reset ctx =
  Array.blit iv 0 ctx.h 0 8;
  ctx.buf_len <- 0;
  ctx.total <- 0

let mask32 = 0xFFFFFFFF

(* ===== Reference implementation (the original kernel) =====

   Kept byte-for-byte: every measurement, HMAC and journal digest
   predates the faster kernel below, which must stay bit-identical to
   this one. [digest] pads in one shot, independently of the streaming
   [update_sub]/[finalize_into], so the oracle checks those too. *)

module Reference = struct
  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

  let compress ctx block off =
    let w = ctx.w in
    (* Whole-word loads; the mask brings the (possibly negative) int32
       into the 0..2^32-1 range the additive steps expect. *)
    for i = 0 to 15 do
      w.(i) <- Int32.to_int (Bytes.get_int32_be block (off + (4 * i))) land 0xFFFFFFFF
    done;
    for i = 16 to 63 do
      let s0 = rotr w.(i - 15) 7 lxor rotr w.(i - 15) 18 lxor (w.(i - 15) lsr 3) in
      let s1 = rotr w.(i - 2) 17 lxor rotr w.(i - 2) 19 lxor (w.(i - 2) lsr 10) in
      w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask32
    done;
    let h = ctx.h in
    let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
    let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
    for i = 0 to 63 do
      let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
      let ch = (!e land !f) lxor (lnot !e land !g) in
      let temp1 = (!hh + s1 + ch + k.(i) + w.(i)) land mask32 in
      let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
      let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
      let temp2 = (s0 + maj) land mask32 in
      hh := !g;
      g := !f;
      f := !e;
      e := (!d + temp1) land mask32;
      d := !c;
      c := !b;
      b := !a;
      a := (temp1 + temp2) land mask32
    done;
    h.(0) <- (h.(0) + !a) land mask32;
    h.(1) <- (h.(1) + !b) land mask32;
    h.(2) <- (h.(2) + !c) land mask32;
    h.(3) <- (h.(3) + !d) land mask32;
    h.(4) <- (h.(4) + !e) land mask32;
    h.(5) <- (h.(5) + !f) land mask32;
    h.(6) <- (h.(6) + !g) land mask32;
    h.(7) <- (h.(7) + !hh) land mask32

  let digest b =
    let len = Bytes.length b in
    let ctx = init () in
    for blk = 0 to (len / 64) - 1 do
      compress ctx b (64 * blk)
    done;
    (* The tail, 0x80, zeros and the 64-bit bit length: one block, or
       two when fewer than 9 bytes are left in the tail's block. *)
    let rem = len mod 64 in
    let tail = Bytes.make (if rem < 56 then 64 else 128) '\000' in
    Bytes.blit b (len - rem) tail 0 rem;
    Bytes.set tail rem '\x80';
    Hypertee_util.Bytes_ext.set_u64_be tail (Bytes.length tail - 8) (Int64.of_int (len * 8));
    compress ctx tail 0;
    if Bytes.length tail = 128 then compress ctx tail 64;
    let out = Bytes.create 32 in
    for i = 0 to 7 do
      Hypertee_util.Bytes_ext.set_u32_be out (4 * i) (Int32.of_int ctx.h.(i))
    done;
    out
end

(* ===== The kernel =====

   Three changes to [Reference.compress], each exact:
   - Rotates on a doubled word. For a clean 32-bit [x], [d = x lor
     (x lsl 32)] holds [x] in bits 0-31 and [x]'s bits 0-30 in bits
     32-62 of the 63-bit int, so for every [n <= 31] the low 32 bits
     of [d lsr n] are [rotr x n]. SHA-256 rotates by 2-25, so each
     Sigma/sigma is one doubling, then a shift per term.
   - Masks only where a rotation or the state reads. [int] addition
     wraps modulo 2^63, a multiple of 2^32, so a sum's low 32 bits are
     exact whatever sits above them. Sigma/sigma, ch, maj, temp1 and
     temp2 stay unmasked; the new [e], the new [a] and each schedule
     word (the values a later rotation doubles) and the state words
     are masked.
   - Unchecked loads of [w], [k] and [h], whose indices are loop
     bounds. The accessors are annotated [int array]: a polymorphic
     [Array.unsafe_get] would test for a float array on every load and
     call out of line on every store. The block's 16 word loads stay
     checked: only [update_sub]'s slice check makes them safe, and
     they are few next to the ~400 accesses to [w], [k] and [h]. *)

let get (a : int array) i = Array.unsafe_get a i
let set (a : int array) i v = Array.unsafe_set a i v

let compress ctx block off =
  let w = ctx.w in
  for i = 0 to 15 do
    set w i (Int32.to_int (Bytes.get_int32_be block (off + (4 * i))) land mask32)
  done;
  for i = 16 to 63 do
    let x = get w (i - 15) in
    let dx = x lor (x lsl 32) in
    let y = get w (i - 2) in
    let dy = y lor (y lsl 32) in
    let s0 = (dx lsr 7) lxor (dx lsr 18) lxor (x lsr 3) in
    let s1 = (dy lsr 17) lxor (dy lsr 19) lxor (y lsr 10) in
    set w i ((get w (i - 16) + s0 + get w (i - 7) + s1) land mask32)
  done;
  let h = ctx.h in
  let a = ref (get h 0) and b = ref (get h 1) and c = ref (get h 2) and d = ref (get h 3) in
  let e = ref (get h 4) and f = ref (get h 5) and g = ref (get h 6) and hh = ref (get h 7) in
  for i = 0 to 63 do
    let de = !e lor (!e lsl 32) in
    let s1 = (de lsr 6) lxor (de lsr 11) lxor (de lsr 25) in
    let ch = (!e land !f) lxor (lnot !e land !g) in
    let temp1 = !hh + s1 + ch + get k i + get w i in
    let da = !a lor (!a lsl 32) in
    let s0 = (da lsr 2) lxor (da lsr 13) lxor (da lsr 22) in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    let temp2 = s0 + maj in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + temp1) land mask32;
    d := !c;
    c := !b;
    b := !a;
    a := (temp1 + temp2) land mask32
  done;
  set h 0 ((get h 0 + !a) land mask32);
  set h 1 ((get h 1 + !b) land mask32);
  set h 2 ((get h 2 + !c) land mask32);
  set h 3 ((get h 3 + !d) land mask32);
  set h 4 ((get h 4 + !e) land mask32);
  set h 5 ((get h 5 + !f) land mask32);
  set h 6 ((get h 6 + !g) land mask32);
  set h 7 ((get h 7 + !hh) land mask32)

let update_sub ctx b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Sha256.update_sub: slice out of bounds";
  ctx.total <- ctx.total + len;
  let pos = ref off and remaining = ref len in
  (* Top up a partially filled block buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = Stdlib.min !remaining (64 - ctx.buf_len) in
    Bytes.blit b !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !remaining >= 64 do
    compress ctx b !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit b !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let update ctx b = update_sub ctx b ~off:0 ~len:(Bytes.length b)

(* [feed_sub] is the name the data-plane callers use; identical to
   [update_sub]. *)
let feed_sub = update_sub

(* Padding scratch: at most 64 pad bytes plus the 8-byte length.
   Domain-local so concurrent finalizes (platforms on different
   domains) each pad in their own buffer. *)
let pad_scratch : bytes Domain.DLS.key = Domain.DLS.new_key (fun () -> Bytes.create 72)

let finalize_into ctx dst ~off =
  let pad_scratch = Domain.DLS.get pad_scratch in
  if off < 0 || off + 32 > Bytes.length dst then
    invalid_arg "Sha256.finalize_into: digest out of bounds";
  let bit_len = Int64.mul (Int64.of_int ctx.total) 8L in
  (* Pad: 0x80, zeros, 8-byte big-endian bit length. *)
  let pad_len =
    let rem = (ctx.total + 1 + 8) mod 64 in
    if rem = 0 then 1 else 1 + (64 - rem)
  in
  Bytes.fill pad_scratch 0 (pad_len + 8) '\000';
  Bytes.set pad_scratch 0 '\x80';
  Hypertee_util.Bytes_ext.set_u64_be pad_scratch pad_len bit_len;
  (* Absorb padding without recounting it in [total]. *)
  let saved_total = ctx.total in
  update_sub ctx pad_scratch ~off:0 ~len:(pad_len + 8);
  ctx.total <- saved_total;
  for i = 0 to 7 do
    Hypertee_util.Bytes_ext.set_u32_be dst (off + (4 * i)) (Int32.of_int ctx.h.(i))
  done

let finalize ctx =
  let out = Bytes.create 32 in
  finalize_into ctx out ~off:0;
  out

let digest b =
  let ctx = init () in
  update ctx b;
  finalize ctx

let digest_string s = digest (Bytes.of_string s)
