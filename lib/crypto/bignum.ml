(* Naturals in base 2^26. Limb i holds bits [26*i, 26*(i+1)).
   Invariant: no trailing zero limbs (canonical form), so zero is the
   empty array. Schoolbook multiplication and Knuth division: the
   attestation stack uses 256–512 bit operands, where asymptotics do
   not pay. Modular exponentiation by an odd modulus runs in
   Montgomery form, which replaces the division after every product
   with a multiply-accumulate pass. *)

let limb_bits = 26
let limb_mask = (1 lsl limb_bits) - 1

type t = int array (* little-endian limbs, canonical *)

let zero : t = [||]
let one : t = [| 1 |]
let two : t = [| 2 |]

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let is_zero a = Array.length a = 0

let of_int v =
  if v < 0 then invalid_arg "Bignum.of_int: negative";
  let rec limbs v = if v = 0 then [] else (v land limb_mask) :: limbs (v lsr limb_bits) in
  Array.of_list (limbs v)

let bit_length a =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec width v acc = if v = 0 then acc else width (v lsr 1) (acc + 1) in
    ((n - 1) * limb_bits) + width top 0
  end

let to_int a =
  (* max_int = 2^62 - 1: anything wider would wrap. *)
  if bit_length a > 62 then failwith "Bignum.to_int: overflow";
  let v = ref 0 in
  for i = Array.length a - 1 downto 0 do
    v := (!v lsl limb_bits) lor a.(i)
  done;
  !v

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let equal a b = compare a b = 0

let add a b =
  let la = Array.length a and lb = Array.length b in
  let n = Stdlib.max la lb + 1 in
  let out = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    out.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  assert (!carry = 0);
  normalize out

let sub a b =
  if compare a b < 0 then invalid_arg "Bignum.sub: would be negative";
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      out.(i) <- d + (1 lsl limb_bits);
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  normalize out

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        (* ai*bj <= (2^26-1)^2 < 2^52; + out + carry stays < 2^54. *)
        let s = out.(i + j) + (ai * b.(j)) + !carry in
        out.(i + j) <- s land limb_mask;
        carry := s lsr limb_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let s = out.(!k) + !carry in
        out.(!k) <- s land limb_mask;
        carry := s lsr limb_bits;
        incr k
      done
    done;
    normalize out
  end

let shift_left a n =
  if is_zero a || n = 0 then if n = 0 then a else a
  else begin
    let limb_shift = n / limb_bits and bit_shift = n mod limb_bits in
    let la = Array.length a in
    let out = Array.make (la + limb_shift + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bit_shift in
      out.(i + limb_shift) <- out.(i + limb_shift) lor (v land limb_mask);
      out.(i + limb_shift + 1) <- out.(i + limb_shift + 1) lor (v lsr limb_bits)
    done;
    normalize out
  end

let shift_right a n =
  if is_zero a || n = 0 then a
  else begin
    let limb_shift = n / limb_bits and bit_shift = n mod limb_bits in
    let la = Array.length a in
    if limb_shift >= la then zero
    else begin
      let out = Array.make (la - limb_shift) 0 in
      for i = 0 to la - limb_shift - 1 do
        let lo = a.(i + limb_shift) lsr bit_shift in
        let hi =
          if bit_shift = 0 || i + limb_shift + 1 >= la then 0
          else (a.(i + limb_shift + 1) lsl (limb_bits - bit_shift)) land limb_mask
        in
        out.(i) <- lo lor hi
      done;
      normalize out
    end
  end

let testbit a i =
  let limb = i / limb_bits in
  if limb >= Array.length a then false else a.(limb) land (1 lsl (i mod limb_bits)) <> 0

let is_even a = not (testbit a 0)

(* Division by a single limb: used directly and as the base case of
   long division. *)
let divmod_limb a d =
  assert (d > 0 && d <= limb_mask);
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    (* carry < 2^26, so carry*2^26 + limb < 2^52: safe in native int. *)
    let cur = (!r lsl limb_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (normalize q, of_int !r)

(* Knuth Algorithm D over base-2^26 limbs, with normalization so the
   divisor's top limb has its high bit set and the 2-limb quotient
   estimate is off by at most 2. *)
let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then divmod_limb a b.(0)
  else begin
    (* Normalize: shift both so divisor top limb >= 2^25. *)
    let shift =
      let top = b.(Array.length b - 1) in
      let rec go v acc = if v land (1 lsl (limb_bits - 1)) <> 0 then acc else go (v lsl 1) (acc + 1) in
      go top 0
    in
    let u0 = shift_left a shift and v = shift_left b shift in
    let n = Array.length v in
    let m = Array.length u0 - n in
    (* Working copy of the dividend with one extra top limb. *)
    let u = Array.make (Array.length u0 + 1) 0 in
    Array.blit u0 0 u 0 (Array.length u0);
    let q = Array.make (m + 1) 0 in
    let v_top = v.(n - 1) and v_next = v.(n - 2) in
    for j = m downto 0 do
      (* Estimate qhat from the top two limbs of the current window. *)
      let num = (u.(j + n) lsl limb_bits) lor u.(j + n - 1) in
      let qhat = ref (num / v_top) and rhat = ref (num mod v_top) in
      if !qhat > limb_mask then begin
        qhat := limb_mask;
        rhat := num - (limb_mask * v_top)
      end;
      let continue_adjust = ref true in
      while !continue_adjust && !rhat <= limb_mask do
        (* Refine with the third limb (Knuth's test). *)
        if !qhat * v_next > (!rhat lsl limb_bits) lor u.(j + n - 2) then begin
          decr qhat;
          rhat := !rhat + v_top
        end
        else continue_adjust := false
      done;
      (* Multiply-subtract: u[j .. j+n] -= qhat * v. *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = (!qhat * v.(i)) + !carry in
        carry := p lsr limb_bits;
        let d = u.(j + i) - (p land limb_mask) - !borrow in
        if d < 0 then begin
          u.(j + i) <- d + (1 lsl limb_bits);
          borrow := 1
        end
        else begin
          u.(j + i) <- d;
          borrow := 0
        end
      done;
      let d = u.(j + n) - !carry - !borrow in
      if d < 0 then begin
        (* qhat was one too large: add the divisor back. *)
        u.(j + n) <- d + (1 lsl limb_bits);
        decr qhat;
        let c = ref 0 in
        for i = 0 to n - 1 do
          let s = u.(j + i) + v.(i) + !c in
          u.(j + i) <- s land limb_mask;
          c := s lsr limb_bits
        done;
        u.(j + n) <- (u.(j + n) + !c) land limb_mask
      end
      else u.(j + n) <- d;
      q.(j) <- !qhat
    done;
    let r = normalize (Array.sub u 0 n) in
    (normalize q, shift_right r shift)
  end

let rem a b = snd (divmod a b)

let mod_pow_reference ~base ~exp ~modulus =
  if is_zero modulus then raise Division_by_zero;
  if equal modulus one then zero
  else begin
    let result = ref one in
    let b = ref (rem base modulus) in
    let nbits = bit_length exp in
    for i = 0 to nbits - 1 do
      if testbit exp i then result := rem (mul !result !b) modulus;
      if i < nbits - 1 then b := rem (mul !b !b) modulus
    done;
    !result
  end

(* --- Montgomery exponentiation (odd moduli) ---

   For an n-limb odd modulus m and R = 2^(26n), Montgomery form holds
   x as x*R mod m, and [mont_mul] returns a*b*R^-1 mod m without a
   division: for each limb of a it adds a_i*b plus the multiple q*m
   that zeroes the low limb, then drops that limb (CIOS, with the
   product and reduction loops fused). Every operand is exactly n
   limbs, zero-padded, and below m. *)

let[@inline always] ( .%() ) (a : int array) i = Array.unsafe_get a i
let[@inline always] ( .%()<- ) (a : int array) i v = Array.unsafe_set a i v

(* -m0^-1 mod 2^26 for odd m0 by Newton's iteration: x*m0 = 1 mod 2^k
   gives x*(2 - m0*x)*m0 = 1 mod 2^2k, and x = m0 is right mod 2^3.
   Products may wrap mod 2^63; the low 26 bits survive. *)
let neg_inv_limb m0 =
  let x = ref m0 in
  for _ = 1 to 4 do
    x := !x * (2 - (m0 * !x)) land limb_mask
  done;
  -(!x) land limb_mask

(* dst <- a*b*R^-1 mod m. [t] is n+1 limbs of scratch and the result
   is only copied out at the end, so [dst] may alias [a] or [b]. *)
let mont_mul ~m ~minv ~t dst a b =
  let n = Array.length m in
  Array.fill t 0 (n + 1) 0;
  for i = 0 to n - 1 do
    let ai = a.%(i) in
    let s = t.%(0) + (ai * b.%(0)) in
    (* s * minv may wrap; only its low limb is used. Limb products
       are < 2^52, so every sum below stays under 2^54. *)
    let q = s * minv land limb_mask in
    let c = ref ((s + (q * m.%(0))) lsr limb_bits) in
    for j = 1 to n - 1 do
      let s = t.%(j) + (ai * b.%(j)) + (q * m.%(j)) + !c in
      t.%(j - 1) <- s land limb_mask;
      c := s lsr limb_bits
    done;
    let s = t.%(n) + !c in
    t.%(n - 1) <- s land limb_mask;
    t.%(n) <- s lsr limb_bits
  done;
  (* t < 2m: subtract m at most once. *)
  let j = ref (n - 1) in
  while !j >= 0 && t.%(!j) = m.%(!j) do
    decr j
  done;
  if t.%(n) <> 0 || !j < 0 || t.%(!j) > m.%(!j) then begin
    let borrow = ref 0 in
    for i = 0 to n - 1 do
      let d = t.%(i) - m.%(i) - !borrow in
      dst.%(i) <- d land limb_mask;
      borrow := -(d asr limb_bits)
    done
  end
  else Array.blit t 0 dst 0 n

(* Bits [pos, pos + 4) of e; a window may straddle two limbs. *)
let window e pos =
  let limb = pos / limb_bits and off = pos mod limb_bits in
  let len = Array.length e in
  let lo = if limb < len then e.(limb) lsr off else 0 in
  let hi =
    if off > limb_bits - 4 && limb + 1 < len then e.(limb + 1) lsl (limb_bits - off) else 0
  in
  (lo lor hi) land 15

(* Left-to-right fixed 4-bit windows over a 16-entry table of base^k
   in Montgomery form: per window, four squarings and (for a nonzero
   digit) one multiply. All scratch is allocated here, per call. *)
let mont_pow ~base ~exp ~modulus:m =
  let n = Array.length m in
  let minv = neg_inv_limb m.(0) in
  let t = Array.make (n + 1) 0 in
  let padded x =
    let out = Array.make n 0 in
    Array.blit x 0 out 0 (Array.length x);
    out
  in
  let r2 = padded (rem (shift_left one (2 * limb_bits * n)) m) in
  let one_m = padded one in
  let table = Array.init 16 (fun _ -> Array.make n 0) in
  mont_mul ~m ~minv ~t table.(0) one_m r2;
  mont_mul ~m ~minv ~t table.(1) (padded (if compare base m >= 0 then rem base m else base)) r2;
  for k = 2 to 15 do
    mont_mul ~m ~minv ~t table.(k) table.(k - 1) table.(1)
  done;
  let windows = (bit_length exp + 3) / 4 in
  let acc = Array.copy table.(window exp (4 * (windows - 1))) in
  for w = windows - 2 downto 0 do
    for _ = 1 to 4 do
      mont_mul ~m ~minv ~t acc acc acc
    done;
    let digit = window exp (4 * w) in
    if digit <> 0 then mont_mul ~m ~minv ~t acc acc table.(digit)
  done;
  mont_mul ~m ~minv ~t acc acc one_m;
  normalize acc

let mod_pow ~base ~exp ~modulus =
  if is_zero modulus then raise Division_by_zero;
  if equal modulus one then zero
  else if is_zero exp then one
  else if is_even modulus then mod_pow_reference ~base ~exp ~modulus
  else mont_pow ~base ~exp ~modulus

let gcd a b =
  let rec go a b = if is_zero b then a else go b (rem a b) in
  if compare a b >= 0 then go a b else go b a

(* Iterative extended Euclid. Coefficients can go negative, so each
   is carried as (magnitude, sign). Maintains the invariant
   s * a = r (mod m) for the (r, s) pairs. *)
let mod_inv a m =
  if is_zero m then raise Division_by_zero;
  if equal m one then None
  else begin
    let a = rem a m in
    if is_zero a then None
    else begin
      (* signed subtract: x - y as (magnitude, sign) given signed inputs *)
      let signed_sub (x, xn) (y, yn) =
        if xn = yn then
          if compare x y >= 0 then (sub x y, xn) else (sub y x, not xn)
        else (add x y, xn)
      in
      let r0 = ref a and r1 = ref m in
      let s0 = ref (one, false) and s1 = ref (zero, false) in
      while not (is_zero !r1) do
        let q, r = divmod !r0 !r1 in
        let s1_mag, s1_neg = !s1 in
        let qs1 = (mul q s1_mag, s1_neg) in
        let next_s = signed_sub !s0 qs1 in
        r0 := !r1;
        r1 := r;
        s0 := !s1;
        s1 := next_s
      done;
      if equal !r0 one then begin
        let mag, neg = !s0 in
        let mag = rem mag m in
        Some (if neg && not (is_zero mag) then sub m mag else mag)
      end
      else None
    end
  end

let of_bytes_be b =
  let acc = ref zero in
  for i = 0 to Bytes.length b - 1 do
    acc := add (shift_left !acc 8) (of_int (Char.code (Bytes.get b i)))
  done;
  !acc

let to_bytes_be ?len a =
  let nbytes = Stdlib.max 1 ((bit_length a + 7) / 8) in
  let nbytes = match len with Some l -> Stdlib.max l nbytes | None -> nbytes in
  let out = Bytes.make nbytes '\000' in
  let v = ref a in
  let i = ref (nbytes - 1) in
  while not (is_zero !v) do
    let q, r = divmod !v (of_int 256) in
    Bytes.set out !i (Char.chr (to_int r));
    v := q;
    decr i
  done;
  (match len with
  | Some l when nbytes > l -> invalid_arg "Bignum.to_bytes_be: value too large for len"
  | _ -> ());
  out

let of_hex s = of_bytes_be (Hypertee_util.Bytes_ext.of_hex (if String.length s mod 2 = 1 then "0" ^ s else s))

let to_hex a =
  let h = Hypertee_util.Bytes_ext.to_hex (to_bytes_be a) in
  (* Trim leading zeros but keep at least one digit. *)
  let n = String.length h in
  let rec first i = if i < n - 1 && h.[i] = '0' then first (i + 1) else i in
  String.sub h (first 0) (n - first 0)

let random rng ~bits =
  if bits <= 0 then zero
  else begin
    let nlimbs = (bits + limb_bits - 1) / limb_bits in
    let out = Array.make nlimbs 0 in
    for i = 0 to nlimbs - 1 do
      out.(i) <- Hypertee_util.Xrng.int rng (limb_mask + 1)
    done;
    (* Mask off bits above [bits]. *)
    let top_bits = bits - ((nlimbs - 1) * limb_bits) in
    out.(nlimbs - 1) <- out.(nlimbs - 1) land ((1 lsl top_bits) - 1);
    normalize out
  end

let random_below rng n =
  if is_zero n then invalid_arg "Bignum.random_below: zero bound";
  let bits = bit_length n in
  let rec go () =
    let c = random rng ~bits in
    if compare c n < 0 then c else go ()
  in
  go ()

let is_probably_prime ?(rounds = 24) rng n =
  if compare n two < 0 then false
  else if equal n two || equal n (of_int 3) then true
  else if is_even n then false
  else begin
    (* Write n-1 = d * 2^s. *)
    let n_minus_1 = sub n one in
    let rec split d s = if is_even d then split (shift_right d 1) (s + 1) else (d, s) in
    let d, s = split n_minus_1 0 in
    let witness a =
      let x = ref (mod_pow ~base:a ~exp:d ~modulus:n) in
      if equal !x one || equal !x n_minus_1 then false
      else begin
        let composite = ref true in
        (try
           for _ = 1 to s - 1 do
             x := rem (mul !x !x) n;
             if equal !x n_minus_1 then begin
               composite := false;
               raise Exit
             end
           done
         with Exit -> ());
        !composite
      end
    in
    let rec rounds_loop i =
      if i = 0 then true
      else begin
        let a = add two (random_below rng (sub n (of_int 3))) in
        if witness a then false else rounds_loop (i - 1)
      end
    in
    rounds_loop rounds
  end

(* Small primes for trial division: discards ~90% of random odd
   candidates before the expensive Miller-Rabin rounds. *)
let small_primes =
  let limit = 1000 in
  let sieve = Array.make (limit + 1) true in
  sieve.(0) <- false;
  sieve.(1) <- false;
  for i = 2 to limit do
    if sieve.(i) then begin
      let j = ref (i * i) in
      while !j <= limit do
        sieve.(!j) <- false;
        j := !j + i
      done
    end
  done;
  let acc = ref [] in
  for i = limit downto 2 do
    if sieve.(i) then acc := i :: !acc
  done;
  Array.of_list !acc

let divisible_by_small_prime n =
  let rec go i =
    if i >= Array.length small_primes then false
    else begin
      let p = small_primes.(i) in
      let _, r = divmod_limb n p in
      if is_zero r then not (equal n (of_int p)) else go (i + 1)
    end
  in
  go 0

let generate_prime rng ~bits =
  if bits < 2 then invalid_arg "Bignum.generate_prime: need >= 2 bits";
  let rec go () =
    let c = random rng ~bits in
    (* Force exact bit width and oddness. *)
    let c = add c (shift_left one (bits - 1)) in
    let c = if is_even c then add c one else c in
    let c = if bit_length c > bits then sub c (shift_left one bits) else c in
    let c = if bit_length c < bits then add c (shift_left one (bits - 1)) else c in
    if (not (divisible_by_small_prime c)) && is_probably_prime rng c then c else go ()
  in
  go ()

let pp fmt a = Format.pp_print_string fmt (to_hex a)
