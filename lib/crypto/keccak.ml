(* Keccak-f[1600] with rate 1088 / capacity 512 (SHA3-256), per FIPS
   202.

   Two permutations coexist, mirroring [Aes]:

   - the *fast* path: the state is 25 64-bit lanes in one 200-byte
     [bytes] in FIPS 202 byte order (lane x + 5y little-endian at byte
     8(x + 5y)). Each round loads every lane into an unboxed [int64]
     local with one eight-byte read, runs a fully unrolled
     theta/rho/pi/chi/iota with constant indices and rotations, and
     stores the lanes back, so the permutation allocates nothing.
     Message bytes XOR straight into the state: a whole rate block is
     17 eight-byte XORs. This is the data plane behind the
     memory-integrity engine's per-line MAC and the channel record
     tag.
   - the original int64-array implementation, retained verbatim as
     [Reference]: the qcheck oracle and the perf-harness baseline
     (the analogue of [Aes.ctr_reference]).

   Sponge scratch lives in domain-local storage, one private set per
   domain, so platforms on different domains MAC pages concurrently
   without sharing state. *)

let rate_bytes = 136 (* 1088 bits *)

(* Truncate a 32-byte digest to the engine's 28-bit per-line tag. *)
let tag_of_digest digest =
  let v =
    (Char.code (Bytes.get digest 0) lsl 24)
    lor (Char.code (Bytes.get digest 1) lsl 16)
    lor (Char.code (Bytes.get digest 2) lsl 8)
    lor Char.code (Bytes.get digest 3)
  in
  v land 0xFFFFFFF

(* ===== Reference implementation (PR 3's incremental sponge) =====

   Kept byte-for-byte: [mac_28bit] tags recorded in sealed HTSNAP1
   snapshots and journals predate the unrolled path, so the fast path
   must stay bit-identical to this one — asserted by the qcheck
   equivalence property and the FIPS 202 vectors over both. *)

module Reference = struct
  let round_constants =
    [|
      0x0000000000000001L; 0x0000000000008082L; 0x800000000000808aL;
      0x8000000080008000L; 0x000000000000808bL; 0x0000000080000001L;
      0x8000000080008081L; 0x8000000000008009L; 0x000000000000008aL;
      0x0000000000000088L; 0x0000000080008009L; 0x000000008000000aL;
      0x000000008000808bL; 0x800000000000008bL; 0x8000000000008089L;
      0x8000000000008003L; 0x8000000000008002L; 0x8000000000000080L;
      0x000000000000800aL; 0x800000008000000aL; 0x8000000080008081L;
      0x8000000000008080L; 0x0000000080000001L; 0x8000000080008008L;
    |]

  (* Rotation offsets, indexed x + 5*y. *)
  let rho_offsets =
    [| 0; 1; 62; 28; 27; 36; 44; 6; 55; 20; 3; 10; 43; 25; 39; 41; 45; 15; 21; 8; 18; 2; 61; 56; 14 |]

  let rotl64 x n =
    if n = 0 then x
    else Int64.logor (Int64.shift_left x n) (Int64.shift_right_logical x (64 - n))

  (* All mutable sponge state — permutation scratch, lanes, partial
     block, MAC digest buffer — lives in one record held in
     domain-local storage. *)
  type sponge = {
    c : int64 array;
    d : int64 array;
    b : int64 array;
    st : int64 array;
    partial : bytes;
    mutable partial_len : int;
    mac_digest : bytes;
  }

  let sponge : sponge Domain.DLS.key =
    Domain.DLS.new_key (fun () ->
        {
          c = Array.make 5 0L;
          d = Array.make 5 0L;
          b = Array.make 25 0L;
          st = Array.make 25 0L;
          partial = Bytes.create rate_bytes;
          partial_len = 0;
          mac_digest = Bytes.create 32;
        })

  let keccak_f { c; d; b; _ } state =
    for round = 0 to 23 do
      (* theta *)
      for x = 0 to 4 do
        c.(x) <-
          Int64.logxor state.(x)
            (Int64.logxor state.(x + 5)
               (Int64.logxor state.(x + 10) (Int64.logxor state.(x + 15) state.(x + 20))))
      done;
      for x = 0 to 4 do
        d.(x) <- Int64.logxor c.((x + 4) mod 5) (rotl64 c.((x + 1) mod 5) 1)
      done;
      for i = 0 to 24 do
        state.(i) <- Int64.logxor state.(i) d.(i mod 5)
      done;
      (* rho + pi *)
      for x = 0 to 4 do
        for y = 0 to 4 do
          let src = x + (5 * y) in
          let dst = y + (5 * (((2 * x) + (3 * y)) mod 5)) in
          b.(dst) <- rotl64 state.(src) rho_offsets.(src)
        done
      done;
      (* chi *)
      for y = 0 to 4 do
        for x = 0 to 4 do
          let i = x + (5 * y) in
          state.(i) <-
            Int64.logxor b.(i)
              (Int64.logand (Int64.lognot b.(((x + 1) mod 5) + (5 * y))) b.(((x + 2) mod 5) + (5 * y)))
        done
      done;
      (* iota *)
      state.(0) <- Int64.logxor state.(0) round_constants.(round)
    done

  let sponge_reset sp =
    Array.fill sp.st 0 25 0L;
    sp.partial_len <- 0

  (* XOR one full rate block at [block+off] into the state and permute. *)
  let absorb_block sp block off =
    for lane = 0 to (rate_bytes / 8) - 1 do
      sp.st.(lane) <- Int64.logxor sp.st.(lane) (Bytes.get_int64_le block (off + (8 * lane)))
    done;
    keccak_f sp sp.st

  let absorb sp msg ~off ~len =
    let pos = ref off and remaining = ref len in
    if sp.partial_len > 0 then begin
      let take = Stdlib.min !remaining (rate_bytes - sp.partial_len) in
      Bytes.blit msg !pos sp.partial sp.partial_len take;
      sp.partial_len <- sp.partial_len + take;
      pos := !pos + take;
      remaining := !remaining - take;
      if sp.partial_len = rate_bytes then begin
        absorb_block sp sp.partial 0;
        sp.partial_len <- 0
      end
    end;
    while !remaining >= rate_bytes do
      absorb_block sp msg !pos;
      pos := !pos + rate_bytes;
      remaining := !remaining - rate_bytes
    done;
    if !remaining > 0 then begin
      Bytes.blit msg !pos sp.partial 0 !remaining;
      sp.partial_len <- sp.partial_len + !remaining
    end

  (* pad10*1 with SHA-3 domain bits 0b01 -> 0x06, then squeeze 32 bytes
     (< rate, single squeeze) into [out+off]. *)
  let finalize_into sp out ~off =
    Bytes.fill sp.partial sp.partial_len (rate_bytes - sp.partial_len) '\000';
    Bytes.set sp.partial sp.partial_len '\x06';
    Bytes.set sp.partial (rate_bytes - 1)
      (Char.chr (Char.code (Bytes.get sp.partial (rate_bytes - 1)) lor 0x80));
    absorb_block sp sp.partial 0;
    for lane = 0 to 3 do
      Hypertee_util.Bytes_ext.set_u64_le out (off + (8 * lane)) sp.st.(lane)
    done

  let sha3_256 msg =
    let sp = Domain.DLS.get sponge in
    sponge_reset sp;
    absorb sp msg ~off:0 ~len:(Bytes.length msg);
    let out = Bytes.create 32 in
    finalize_into sp out ~off:0;
    out

  let mac_28bit ~key data =
    let sp = Domain.DLS.get sponge in
    sponge_reset sp;
    absorb sp key ~off:0 ~len:(Bytes.length key);
    absorb sp data ~off:0 ~len:(Bytes.length data);
    finalize_into sp sp.mac_digest ~off:0;
    tag_of_digest sp.mac_digest
end

(* ===== Fast path ===== *)

let state_bytes = 200 (* 25 lanes x 8 bytes *)

(* Lane arithmetic: [int64] primitives compile to single
   instructions, and a let-bound [int64] that never escapes stays in a
   register, so nothing below boxes. [lane]/[set_lane] are
   [Bytes.get_int64_le]/[set_int64_le] (byte-swapped on big-endian
   hosts, as the stdlib does) minus the bounds check: the permutation
   touches only its own 200-byte state at constant lanes 0-24, and the
   checks alone made a 4 KiB MAC take about 1.7x as long. *)
module Lane = struct
  external ( lxor ) : int64 -> int64 -> int64 = "%int64_xor"
  external ( land ) : int64 -> int64 -> int64 = "%int64_and"
  external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
  external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
  external swap64 : int64 -> int64 = "%bswap_int64"

  let[@inline always] lnot x = x lxor -1L

  let[@inline always] rol x n =
    Int64.logor (Int64.shift_left x n) (Int64.shift_right_logical x (64 - n))

  let[@inline always] lane st i =
    if Sys.big_endian then swap64 (get64u st (8 * i)) else get64u st (8 * i)

  let[@inline always] set_lane st i v =
    if Sys.big_endian then set64u st (8 * i) (swap64 v) else set64u st (8 * i) v
end

(* One Keccak-f[1600] permutation over the 25 lanes of [st] (lane
   x + 5y at byte 8(x + 5y)). Fully unrolled theta/rho/pi/chi/iota per
   round: every lane index and rotation is a constant, nothing is
   indexed modulo 5 and nothing allocates. Generated mechanically from
   the (x + 5y) lane layout and the FIPS 202 rotation table; the
   qcheck equivalence properties in test_dataplane pin it to
   [Reference]. *)
let keccak_p st =
  let open Lane in
  for round = 0 to 23 do
    let a0 = lane st 0 in
    let a1 = lane st 1 in
    let a2 = lane st 2 in
    let a3 = lane st 3 in
    let a4 = lane st 4 in
    let a5 = lane st 5 in
    let a6 = lane st 6 in
    let a7 = lane st 7 in
    let a8 = lane st 8 in
    let a9 = lane st 9 in
    let a10 = lane st 10 in
    let a11 = lane st 11 in
    let a12 = lane st 12 in
    let a13 = lane st 13 in
    let a14 = lane st 14 in
    let a15 = lane st 15 in
    let a16 = lane st 16 in
    let a17 = lane st 17 in
    let a18 = lane st 18 in
    let a19 = lane st 19 in
    let a20 = lane st 20 in
    let a21 = lane st 21 in
    let a22 = lane st 22 in
    let a23 = lane st 23 in
    let a24 = lane st 24 in
    let c0 = a0 lxor a5 lxor a10 lxor a15 lxor a20 in
    let c1 = a1 lxor a6 lxor a11 lxor a16 lxor a21 in
    let c2 = a2 lxor a7 lxor a12 lxor a17 lxor a22 in
    let c3 = a3 lxor a8 lxor a13 lxor a18 lxor a23 in
    let c4 = a4 lxor a9 lxor a14 lxor a19 lxor a24 in
    let d0 = c4 lxor rol c1 1 in
    let d1 = c0 lxor rol c2 1 in
    let d2 = c1 lxor rol c3 1 in
    let d3 = c2 lxor rol c4 1 in
    let d4 = c3 lxor rol c0 1 in
    let b0 = a0 lxor d0 in
    let b16 = rol (a5 lxor d0) 36 in
    let b7 = rol (a10 lxor d0) 3 in
    let b23 = rol (a15 lxor d0) 41 in
    let b14 = rol (a20 lxor d0) 18 in
    let b10 = rol (a1 lxor d1) 1 in
    let b1 = rol (a6 lxor d1) 44 in
    let b17 = rol (a11 lxor d1) 10 in
    let b8 = rol (a16 lxor d1) 45 in
    let b24 = rol (a21 lxor d1) 2 in
    let b20 = rol (a2 lxor d2) 62 in
    let b11 = rol (a7 lxor d2) 6 in
    let b2 = rol (a12 lxor d2) 43 in
    let b18 = rol (a17 lxor d2) 15 in
    let b9 = rol (a22 lxor d2) 61 in
    let b5 = rol (a3 lxor d3) 28 in
    let b21 = rol (a8 lxor d3) 55 in
    let b12 = rol (a13 lxor d3) 25 in
    let b3 = rol (a18 lxor d3) 21 in
    let b19 = rol (a23 lxor d3) 56 in
    let b15 = rol (a4 lxor d4) 27 in
    let b6 = rol (a9 lxor d4) 20 in
    let b22 = rol (a14 lxor d4) 39 in
    let b13 = rol (a19 lxor d4) 8 in
    let b4 = rol (a24 lxor d4) 14 in
    set_lane st 0 (b0 lxor (lnot b1 land b2) lxor Array.unsafe_get Reference.round_constants round);
    set_lane st 1 (b1 lxor (lnot b2 land b3));
    set_lane st 2 (b2 lxor (lnot b3 land b4));
    set_lane st 3 (b3 lxor (lnot b4 land b0));
    set_lane st 4 (b4 lxor (lnot b0 land b1));
    set_lane st 5 (b5 lxor (lnot b6 land b7));
    set_lane st 6 (b6 lxor (lnot b7 land b8));
    set_lane st 7 (b7 lxor (lnot b8 land b9));
    set_lane st 8 (b8 lxor (lnot b9 land b5));
    set_lane st 9 (b9 lxor (lnot b5 land b6));
    set_lane st 10 (b10 lxor (lnot b11 land b12));
    set_lane st 11 (b11 lxor (lnot b12 land b13));
    set_lane st 12 (b12 lxor (lnot b13 land b14));
    set_lane st 13 (b13 lxor (lnot b14 land b10));
    set_lane st 14 (b14 lxor (lnot b10 land b11));
    set_lane st 15 (b15 lxor (lnot b16 land b17));
    set_lane st 16 (b16 lxor (lnot b17 land b18));
    set_lane st 17 (b17 lxor (lnot b18 land b19));
    set_lane st 18 (b18 lxor (lnot b19 land b15));
    set_lane st 19 (b19 lxor (lnot b15 land b16));
    set_lane st 20 (b20 lxor (lnot b21 land b22));
    set_lane st 21 (b21 lxor (lnot b22 land b23));
    set_lane st 22 (b22 lxor (lnot b23 land b24));
    set_lane st 23 (b23 lxor (lnot b24 land b20));
    set_lane st 24 (b24 lxor (lnot b20 land b21))
  done

(* Fast sponge: the state as 200 bytes, plus how many bytes of the
   current rate block are already absorbed. Because the state is in
   FIPS 202 byte order, message bytes XOR straight into it (no
   partial-block buffer) and the digest is its first 32 bytes. One
   private record per domain, hoisted out of the per-call path. *)
type sponge = {
  st : bytes;
  mutable partial_len : int;
}

let sponge : sponge Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { st = Bytes.make state_bytes '\000'; partial_len = 0 })

let sponge_reset sp =
  Bytes.fill sp.st 0 state_bytes '\000';
  sp.partial_len <- 0

let[@inline] xor_byte st i v = Bytes.set st i (Char.unsafe_chr (Char.code (Bytes.get st i) lxor v))

(* Absorb [msg.[off..off+len-1]]: whole rate blocks as 17 eight-byte
   lane XORs, the ragged edges of a block byte by byte. *)
let absorb sp msg ~off ~len =
  let st = sp.st and pos = ref off and stop = off + len in
  while !pos < stop do
    if sp.partial_len = 0 && stop - !pos >= rate_bytes then begin
      for lane = 0 to (rate_bytes / 8) - 1 do
        let o = 8 * lane in
        Bytes.set_int64_le st o
          (Int64.logxor (Bytes.get_int64_le st o) (Bytes.get_int64_le msg (!pos + o)))
      done;
      keccak_p st;
      pos := !pos + rate_bytes
    end
    else begin
      let take = Stdlib.min (stop - !pos) (rate_bytes - sp.partial_len) in
      for i = 0 to take - 1 do
        xor_byte st (sp.partial_len + i) (Char.code (Bytes.get msg (!pos + i)))
      done;
      sp.partial_len <- sp.partial_len + take;
      pos := !pos + take;
      if sp.partial_len = rate_bytes then begin
        keccak_p st;
        sp.partial_len <- 0
      end
    end
  done

(* pad10*1 with SHA-3 domain bits 0b01 -> 0x06, then the final
   permutation; the digest is the first 32 bytes of the state (< rate,
   single squeeze). *)
let finalize sp =
  xor_byte sp.st sp.partial_len 0x06;
  xor_byte sp.st (rate_bytes - 1) 0x80;
  keccak_p sp.st

let sha3_256 msg =
  let sp = Domain.DLS.get sponge in
  sponge_reset sp;
  absorb sp msg ~off:0 ~len:(Bytes.length msg);
  finalize sp;
  Bytes.sub sp.st 0 32

let sha3_256_string s = sha3_256 (Bytes.of_string s)

let mac_28bit ~key data =
  (* Streaming key || data through the sponge is byte-identical to
     hashing their concatenation, minus the concat buffer. The tag is
     an int read off the domain-local state, so nothing the caller
     sees aliases it. *)
  let sp = Domain.DLS.get sponge in
  sponge_reset sp;
  absorb sp key ~off:0 ~len:(Bytes.length key);
  absorb sp data ~off:0 ~len:(Bytes.length data);
  finalize sp;
  tag_of_digest sp.st

(* --- Keyed-MAC snapshots. The MEE MACs every line under one engine
   key, so instead of re-absorbing the key per call it captures the
   sponge state right after the key once and replays that snapshot:
   [mac_28bit_keyed] then only touches the data bytes. Tags are
   byte-identical to [mac_28bit] because the snapshot *is* the
   post-key sponge. --- *)

type keyed = {
  kst : bytes;
  kpartial_len : int;
}

let keyed_init ~key =
  let sp = Domain.DLS.get sponge in
  sponge_reset sp;
  absorb sp key ~off:0 ~len:(Bytes.length key);
  { kst = Bytes.copy sp.st; kpartial_len = sp.partial_len }

let replay keyed =
  let sp = Domain.DLS.get sponge in
  Bytes.blit keyed.kst 0 sp.st 0 state_bytes;
  sp.partial_len <- keyed.kpartial_len;
  sp

let mac_28bit_keyed keyed data =
  let sp = replay keyed in
  absorb sp data ~off:0 ~len:(Bytes.length data);
  finalize sp;
  tag_of_digest sp.st

let mac16_keyed_into keyed data ~off ~len tag ~tag_off =
  if off < 0 || len < 0 || off > Bytes.length data - len
     || tag_off < 0 || tag_off > Bytes.length tag - 16
  then invalid_arg "Keccak.mac16_keyed_into: slice out of bounds";
  let sp = replay keyed in
  absorb sp data ~off ~len;
  finalize sp;
  Bytes.blit sp.st 0 tag tag_off 16
