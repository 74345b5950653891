(* AES-128 per FIPS 197. The S-box is computed at load time from the
   GF(2^8) inverse plus the affine transform rather than pasted as a
   table, which also documents where the constants come from.

   Two encryption paths coexist:

   - the *T-table* path: SubBytes/ShiftRows/MixColumns fused into four
     256-entry 32-bit tables, one lookup per state byte per round, with
     [_into] variants that write into caller (or module) scratch. This
     is the data plane behind the memory-encryption engine.
   - the original byte-array *reference* path, retained for decryption
     (which is cold) and as [ctr_reference] so tests and the perf
     harness can assert the fast path is bit-identical and measure the
     speedup.

   The reused scratch buffers follow the same convention as [Keccak]:
   one private set per domain in domain-local storage, so hot paths
   stay allocation-free and platforms fanned out over domains never
   share them. *)

let block_size = 16

(* --- GF(2^8) arithmetic, modulus x^8 + x^4 + x^3 + x + 1 (0x11B) --- *)

let xtime a = if a land 0x80 <> 0 then ((a lsl 1) lxor 0x11B) land 0xFF else (a lsl 1) land 0xFF

let gmul a b =
  let acc = ref 0 and a = ref a and b = ref b in
  while !b <> 0 do
    if !b land 1 <> 0 then acc := !acc lxor !a;
    a := xtime !a;
    b := !b lsr 1
  done;
  !acc land 0xFF

let sbox, inv_sbox =
  let s = Array.make 256 0 and inv = Array.make 256 0 in
  (* Build the multiplicative inverse table via generator 3 (log/alog). *)
  let alog = Array.make 256 0 and log = Array.make 256 0 in
  let x = ref 1 in
  for i = 0 to 254 do
    alog.(i) <- !x;
    log.(!x) <- i;
    x := gmul !x 3
  done;
  let inverse a = if a = 0 then 0 else alog.((255 - log.(a)) mod 255) in
  let affine a =
    let rot v n = ((v lsl n) lor (v lsr (8 - n))) land 0xFF in
    a lxor rot a 1 lxor rot a 2 lxor rot a 3 lxor rot a 4 lxor 0x63
  in
  for a = 0 to 255 do
    s.(a) <- affine (inverse a)
  done;
  for a = 0 to 255 do
    inv.(s.(a)) <- a
  done;
  (s, inv)

(* --- Fused T-tables. te0.(x) packs the MixColumns column produced by
   the substituted byte [sbox.(x)] landing in row 0 after ShiftRows;
   te1..te3 are the same column rotated for rows 1..3. One round of
   SubBytes+ShiftRows+MixColumns for an output column is then four
   table lookups XORed together. Words are big-endian packed (row 0 in
   the top byte), matching [Bytes.get_int32_be] on the input block. *)

let te0, te1, te2, te3 =
  let t0 = Array.make 256 0 and t1 = Array.make 256 0 in
  let t2 = Array.make 256 0 and t3 = Array.make 256 0 in
  for x = 0 to 255 do
    let s = sbox.(x) in
    let s2 = gmul s 2 and s3 = gmul s 3 in
    t0.(x) <- (s2 lsl 24) lor (s lsl 16) lor (s lsl 8) lor s3;
    t1.(x) <- (s3 lsl 24) lor (s2 lsl 16) lor (s lsl 8) lor s;
    t2.(x) <- (s lsl 24) lor (s3 lsl 16) lor (s2 lsl 8) lor s;
    t3.(x) <- (s lsl 24) lor (s lsl 16) lor (s3 lsl 8) lor s2
  done;
  (t0, t1, t2, t3)

(* --- Key schedule --- *)

type key = {
  enc : int array array; (* 11 round keys of 16 bytes (reference/decrypt path) *)
  rk : int array; (* the same schedule as 44 big-endian-packed 32-bit words *)
}

let expand key_bytes =
  if Bytes.length key_bytes <> 16 then invalid_arg "Aes.expand: key must be 16 bytes";
  (* Words as 4-byte arrays. *)
  let w = Array.make 44 [||] in
  for i = 0 to 3 do
    w.(i) <- Array.init 4 (fun j -> Char.code (Bytes.get key_bytes ((4 * i) + j)))
  done;
  let rcon = ref 1 in
  for i = 4 to 43 do
    let temp = Array.copy w.(i - 1) in
    if i mod 4 = 0 then begin
      (* RotWord + SubWord + Rcon *)
      let t0 = temp.(0) in
      temp.(0) <- sbox.(temp.(1)) lxor !rcon;
      temp.(1) <- sbox.(temp.(2));
      temp.(2) <- sbox.(temp.(3));
      temp.(3) <- sbox.(t0);
      rcon := xtime !rcon
    end;
    w.(i) <- Array.init 4 (fun j -> w.(i - 4).(j) lxor temp.(j))
  done;
  let enc =
    Array.init 11 (fun r -> Array.init 16 (fun j -> w.((4 * r) + (j / 4)).(j mod 4)))
  in
  let rk =
    Array.init 44 (fun i ->
        (w.(i).(0) lsl 24) lor (w.(i).(1) lsl 16) lor (w.(i).(2) lsl 8) lor w.(i).(3))
  in
  { enc; rk }

(* --- Reference rounds. State is a 16-byte int array in column-major
   order, matching the round-key layout above. Kept for decryption and
   as the baseline the T-table path is checked against. --- *)

let mul_table k = Array.init 256 (fun a -> gmul a k)
let m2 = mul_table 2
let m3 = mul_table 3
let m9 = mul_table 9
let m11 = mul_table 11
let m13 = mul_table 13
let m14 = mul_table 14

let add_round_key state rk =
  for i = 0 to 15 do
    state.(i) <- state.(i) lxor rk.(i)
  done

let sub_bytes state =
  for i = 0 to 15 do
    state.(i) <- sbox.(state.(i))
  done

let inv_sub_bytes state =
  for i = 0 to 15 do
    state.(i) <- inv_sbox.(state.(i))
  done

(* Row r of the state lives at indices r, r+4, r+8, r+12; row r
   rotates left by r positions. *)
let shift_rows state =
  let t = state.(1) in
  state.(1) <- state.(5); state.(5) <- state.(9); state.(9) <- state.(13); state.(13) <- t;
  let t0 = state.(2) and t1 = state.(6) in
  state.(2) <- state.(10); state.(6) <- state.(14); state.(10) <- t0; state.(14) <- t1;
  let t = state.(15) in
  state.(15) <- state.(11); state.(11) <- state.(7); state.(7) <- state.(3); state.(3) <- t

let inv_shift_rows state =
  let t = state.(13) in
  state.(13) <- state.(9); state.(9) <- state.(5); state.(5) <- state.(1); state.(1) <- t;
  let t0 = state.(2) and t1 = state.(6) in
  state.(2) <- state.(10); state.(6) <- state.(14); state.(10) <- t0; state.(14) <- t1;
  let t = state.(3) in
  state.(3) <- state.(7); state.(7) <- state.(11); state.(11) <- state.(15); state.(15) <- t

let mix_columns state =
  for c = 0 to 3 do
    let a0 = state.(4 * c) and a1 = state.((4 * c) + 1) in
    let a2 = state.((4 * c) + 2) and a3 = state.((4 * c) + 3) in
    state.(4 * c) <- m2.(a0) lxor m3.(a1) lxor a2 lxor a3;
    state.((4 * c) + 1) <- a0 lxor m2.(a1) lxor m3.(a2) lxor a3;
    state.((4 * c) + 2) <- a0 lxor a1 lxor m2.(a2) lxor m3.(a3);
    state.((4 * c) + 3) <- m3.(a0) lxor a1 lxor a2 lxor m2.(a3)
  done

let inv_mix_columns state =
  for c = 0 to 3 do
    let a0 = state.(4 * c) and a1 = state.((4 * c) + 1) in
    let a2 = state.((4 * c) + 2) and a3 = state.((4 * c) + 3) in
    state.(4 * c) <- m14.(a0) lxor m11.(a1) lxor m13.(a2) lxor m9.(a3);
    state.((4 * c) + 1) <- m9.(a0) lxor m14.(a1) lxor m11.(a2) lxor m13.(a3);
    state.((4 * c) + 2) <- m13.(a0) lxor m9.(a1) lxor m14.(a2) lxor m11.(a3);
    state.((4 * c) + 3) <- m11.(a0) lxor m13.(a1) lxor m9.(a2) lxor m14.(a3)
  done

let state_of_bytes b =
  if Bytes.length b <> 16 then invalid_arg "Aes: block must be 16 bytes";
  Array.init 16 (fun i -> Char.code (Bytes.get b i))

let bytes_of_state state =
  let out = Bytes.create 16 in
  Array.iteri (fun i v -> Bytes.set out i (Char.chr v)) state;
  out

let encrypt_block_ref key src =
  let state = state_of_bytes src in
  add_round_key state key.enc.(0);
  for round = 1 to 9 do
    sub_bytes state;
    shift_rows state;
    mix_columns state;
    add_round_key state key.enc.(round)
  done;
  sub_bytes state;
  shift_rows state;
  add_round_key state key.enc.(10);
  bytes_of_state state

let decrypt_block key src =
  let state = state_of_bytes src in
  add_round_key state key.enc.(10);
  for round = 9 downto 1 do
    inv_shift_rows state;
    inv_sub_bytes state;
    add_round_key state key.enc.(round);
    inv_mix_columns state
  done;
  inv_shift_rows state;
  inv_sub_bytes state;
  add_round_key state key.enc.(0);
  bytes_of_state state

(* --- T-table encryption. The state is four 32-bit column words; the
   ShiftRows rotation shows up as each output column sampling a byte
   from columns c, c+1, c+2, c+3 (mod 4). Written as a tail-recursive
   round function over native ints so a block encryption performs no
   allocation at all; the four output words land in [out].

   Every table, round-key and [out] access below is unchecked, and
   each is in range by construction: [key] is abstract and only
   [expand] builds one, so [rk] always holds 44 words and rounds 1-10
   read at most [rk.(43)]; every table index is masked with
   [land 0xFF] into the 256-entry [te0..te3]/[sbox]; and [out] is
   always a four-word domain-local scratch array. Callers check their
   byte slices before entering. *)

let[@inline always] ( .%() ) a i = Array.unsafe_get (a : int array) i
let[@inline always] ( .%()<- ) a i v = Array.unsafe_set (a : int array) i v

let rec rounds rk r s0 s1 s2 s3 (out : int array) =
  if r = 10 then begin
    out.%(0) <-
      ((sbox.%((s0 lsr 24) land 0xFF) lsl 24)
      lor (sbox.%((s1 lsr 16) land 0xFF) lsl 16)
      lor (sbox.%((s2 lsr 8) land 0xFF) lsl 8)
      lor sbox.%(s3 land 0xFF))
      lxor rk.%(40);
    out.%(1) <-
      ((sbox.%((s1 lsr 24) land 0xFF) lsl 24)
      lor (sbox.%((s2 lsr 16) land 0xFF) lsl 16)
      lor (sbox.%((s3 lsr 8) land 0xFF) lsl 8)
      lor sbox.%(s0 land 0xFF))
      lxor rk.%(41);
    out.%(2) <-
      ((sbox.%((s2 lsr 24) land 0xFF) lsl 24)
      lor (sbox.%((s3 lsr 16) land 0xFF) lsl 16)
      lor (sbox.%((s0 lsr 8) land 0xFF) lsl 8)
      lor sbox.%(s1 land 0xFF))
      lxor rk.%(42);
    out.%(3) <-
      ((sbox.%((s3 lsr 24) land 0xFF) lsl 24)
      lor (sbox.%((s0 lsr 16) land 0xFF) lsl 16)
      lor (sbox.%((s1 lsr 8) land 0xFF) lsl 8)
      lor sbox.%(s2 land 0xFF))
      lxor rk.%(43)
  end
  else begin
    let base = 4 * r in
    let t0 =
      te0.%((s0 lsr 24) land 0xFF) lxor te1.%((s1 lsr 16) land 0xFF)
      lxor te2.%((s2 lsr 8) land 0xFF) lxor te3.%(s3 land 0xFF) lxor rk.%(base)
    in
    let t1 =
      te0.%((s1 lsr 24) land 0xFF) lxor te1.%((s2 lsr 16) land 0xFF)
      lxor te2.%((s3 lsr 8) land 0xFF) lxor te3.%(s0 land 0xFF) lxor rk.%(base + 1)
    in
    let t2 =
      te0.%((s2 lsr 24) land 0xFF) lxor te1.%((s3 lsr 16) land 0xFF)
      lxor te2.%((s0 lsr 8) land 0xFF) lxor te3.%(s1 land 0xFF) lxor rk.%(base + 2)
    in
    let t3 =
      te0.%((s3 lsr 24) land 0xFF) lxor te1.%((s0 lsr 16) land 0xFF)
      lxor te2.%((s1 lsr 8) land 0xFF) lxor te3.%(s2 land 0xFF) lxor rk.%(base + 3)
    in
    rounds rk (r + 1) t0 t1 t2 t3 out
  end

(* Encrypt the block whose four big-endian words are [w0..w3],
   leaving the four ciphertext words in [out]. *)
let[@inline] encrypt4 rk w0 w1 w2 w3 out =
  rounds rk 1 (w0 lxor rk.%(0)) (w1 lxor rk.%(1)) (w2 lxor rk.%(2)) (w3 lxor rk.%(3)) out

let get_word b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFFFFFF

(* Reused scratch for the block/CTR/CBC paths, one set per domain:
   keeps these paths allocation-free while platforms on different
   domains encrypt pages at once. *)
type scratch = {
  block_words : int array;
  ctr_words : int array;
  page_nonce : bytes;
  cbc_block : bytes;
}

let scratch : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        block_words = Array.make 4 0;
        ctr_words = Array.make 4 0;
        page_nonce = Bytes.make 16 '\000';
        cbc_block = Bytes.create 16;
      })

let encrypt_block_into key src ~src_off dst ~dst_off =
  if src_off < 0 || src_off + 16 > Bytes.length src
     || dst_off < 0 || dst_off + 16 > Bytes.length dst
  then invalid_arg "Aes.encrypt_block_into: block out of bounds";
  let block_words = (Domain.DLS.get scratch).block_words in
  encrypt4 key.rk (get_word src src_off) (get_word src (src_off + 4))
    (get_word src (src_off + 8)) (get_word src (src_off + 12)) block_words;
  Bytes.set_int32_be dst dst_off (Int32.of_int block_words.(0));
  Bytes.set_int32_be dst (dst_off + 4) (Int32.of_int block_words.(1));
  Bytes.set_int32_be dst (dst_off + 8) (Int32.of_int block_words.(2));
  Bytes.set_int32_be dst (dst_off + 12) (Int32.of_int block_words.(3))

let encrypt_block key src =
  if Bytes.length src <> 16 then invalid_arg "Aes: block must be 16 bytes";
  let out = Bytes.create 16 in
  encrypt_block_into key src ~src_off:0 out ~dst_off:0;
  out

(* --- CTR mode. The nonce seeds a 16-byte counter whose low 64 bits
   increment big-endian per block. [ctr_into] streams src -> dst
   (aliasing allowed) without allocating. --- *)

(* Increment the low 64 bits of [counter] big-endian, wrapping modulo
   2^64 ([ctr_reference]'s counter). *)
let bump counter =
  let rec go i =
    if i >= 8 then ()
    else begin
      let v = (Char.code (Bytes.get counter (15 - i)) + 1) land 0xFF in
      Bytes.set counter (15 - i) (Char.chr v);
      if v = 0 then go (i + 1)
    end
  in
  go 0

(* XOR one keystream byte (big-endian position [i] within the block)
   into a single src byte. Used only for ragged head/tail bytes. *)
let xor_byte ctr_words src src_i dst dst_i i =
  let ks = (ctr_words.(i / 4) lsr (8 * (3 - (i mod 4)))) land 0xFF in
  Bytes.set dst dst_i (Char.chr (Char.code (Bytes.get src src_i) lxor ks))

let[@inline always] hi32 c = Int64.to_int (Int64.shift_right_logical c 32)
let[@inline always] lo32 c = Int64.to_int c land 0xFFFFFFFF

(* Keystream words [2h] and [2h+1] as one big-endian 64-bit half-block. *)
let[@inline always] ks64 ks h =
  Int64.logor (Int64.shift_left (Int64.of_int ks.%(2 * h)) 32) (Int64.of_int ks.%((2 * h) + 1))

let ctr_into key ~nonce ?(stream_off = 0) ~src ~src_off ~dst ~dst_off len =
  if Bytes.length nonce <> 16 then invalid_arg "Aes.ctr: nonce must be 16 bytes";
  if len < 0 || src_off < 0 || dst_off < 0 || stream_off < 0
     || src_off + len > Bytes.length src
     || dst_off + len > Bytes.length dst
  then invalid_arg "Aes.ctr_into: slice out of bounds";
  let rk = key.rk and ks = (Domain.DLS.get scratch).ctr_words in
  (* The counter block as words: the nonce's high half [n0, n1] is
     fixed, its low 64 bits [ctr] stay a native int64 advanced once
     per block. Int64 addition wraps modulo 2^64, exactly as [bump]
     does, including the jump to the slice's first block. *)
  let n0 = get_word nonce 0 and n1 = get_word nonce 4 in
  let ctr = ref (Int64.add (Bytes.get_int64_be nonce 8) (Int64.of_int (stream_off / 16))) in
  let lead = stream_off mod 16 in
  let pos = ref 0 in
  (* Ragged head: keystream offset [lead] within the first block. *)
  if lead <> 0 && len > 0 then begin
    encrypt4 rk n0 n1 (hi32 !ctr) (lo32 !ctr) ks;
    ctr := Int64.succ !ctr;
    let n = Stdlib.min (16 - lead) len in
    for i = 0 to n - 1 do
      xor_byte ks src (src_off + i) dst (dst_off + i) (lead + i)
    done;
    pos := n
  end;
  (* Full blocks: two eight-byte XORs each. *)
  while len - !pos >= 16 do
    let c = !ctr in
    encrypt4 rk n0 n1 (hi32 c) (lo32 c) ks;
    ctr := Int64.succ c;
    let s = src_off + !pos and d = dst_off + !pos in
    Bytes.set_int64_be dst d (Int64.logxor (Bytes.get_int64_be src s) (ks64 ks 0));
    Bytes.set_int64_be dst (d + 8) (Int64.logxor (Bytes.get_int64_be src (s + 8)) (ks64 ks 1));
    pos := !pos + 16
  done;
  (* Ragged tail. *)
  let rem = len - !pos in
  if rem > 0 then begin
    encrypt4 rk n0 n1 (hi32 !ctr) (lo32 !ctr) ks;
    for i = 0 to rem - 1 do
      xor_byte ks src (src_off + !pos + i) dst (dst_off + !pos + i) i
    done
  end

let ctr key ~nonce data =
  let len = Bytes.length data in
  let out = Bytes.create len in
  ctr_into key ~nonce ~src:data ~src_off:0 ~dst:out ~dst_off:0 len;
  out

(* The pre-T-table CTR implementation, verbatim (including its
   per-block allocations). The perf harness measures the fast path
   against this, and tests assert bit-identical output. *)
let ctr_reference key ~nonce data =
  if Bytes.length nonce <> 16 then invalid_arg "Aes.ctr: nonce must be 16 bytes";
  let len = Bytes.length data in
  let out = Bytes.copy data in
  let counter = Bytes.copy nonce in
  let blocks = (len + 15) / 16 in
  for b = 0 to blocks - 1 do
    let ks = encrypt_block_ref key counter in
    let off = 16 * b in
    let n = Stdlib.min 16 (len - off) in
    for i = 0 to n - 1 do
      Bytes.set out (off + i)
        (Char.chr (Char.code (Bytes.get out (off + i)) lxor Char.code (Bytes.get ks i)))
    done;
    bump counter
  done;
  out

(* --- Tweaked page encryption. The page number lands big-endian in
   the low 8 bytes of a reusable nonce buffer. --- *)

let set_page_nonce ~page_number =
  let page_nonce = (Domain.DLS.get scratch).page_nonce in
  Hypertee_util.Bytes_ext.set_u64_be page_nonce 8 (Int64.of_int page_number);
  page_nonce

let encrypt_page_into key ~page_number ?(page_off = 0) ~src ~src_off ~dst ~dst_off len =
  let nonce = set_page_nonce ~page_number in
  ctr_into key ~nonce ~stream_off:page_off ~src ~src_off ~dst ~dst_off len

let decrypt_page_into = encrypt_page_into

let encrypt_page key ~page_number data =
  let nonce = set_page_nonce ~page_number in
  ctr key ~nonce data

let decrypt_page = encrypt_page

(* --- CBC-MAC. One block of domain-local scratch; the accumulator
   doubles as the output, so the whole MAC performs a single
   allocation. --- *)

let cbc_mac key data =
  let cbc_block = (Domain.DLS.get scratch).cbc_block in
  let len = Bytes.length data in
  let blocks = (len + 15) / 16 in
  let acc = Bytes.make 16 '\000' in
  for b = 0 to blocks - 1 do
    let off = 16 * b in
    Bytes.fill cbc_block 0 16 '\000';
    Bytes.blit data off cbc_block 0 (Stdlib.min 16 (len - off));
    Hypertee_util.Bytes_ext.xor_into ~src:acc ~dst:cbc_block;
    encrypt_block_into key cbc_block ~src_off:0 acc ~dst_off:0
  done;
  if blocks = 0 then encrypt_block_into key acc ~src_off:0 acc ~dst_off:0;
  acc
