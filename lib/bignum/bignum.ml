(* Arbitrary-precision naturals on 31-bit limbs, little-endian.

   Invariant: the limb array has no trailing zero limb; zero is the empty
   array.  31-bit limbs keep every intermediate of [divmod_small] and
   [mul_small] within 62 bits, so plain [int] arithmetic never overflows on
   64-bit platforms. *)

exception Underflow

let limb_bits = 31
let limb_mask = (1 lsl limb_bits) - 1
let small_max = 1 lsl 30

type t = int array

let zero : t = [||]

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let is_zero x = Array.length x = 0

let of_int k =
  if k < 0 then invalid_arg "Bignum.of_int: negative";
  let rec limbs k = if k = 0 then [] else (k land limb_mask) :: limbs (k lsr limb_bits) in
  Array.of_list (limbs k)

let one = of_int 1

(* An OCaml int has 63 value bits; three 31-bit limbs may not fit. *)
let to_int_opt x =
  let n = Array.length x in
  if n = 0 then Some 0
  else if n > 3 then None
  else
    let rec build i acc =
      if i < 0 then Some acc
      else
        let shifted = acc lsl limb_bits in
        if shifted lsr limb_bits <> acc || shifted < 0 then None
        else build (i - 1) (shifted lor x.(i))
    in
    build (n - 1) 0

let to_int_exn x =
  match to_int_opt x with
  | Some k -> k
  | None -> failwith "Bignum.to_int_exn: does not fit in int"

let equal (a : t) (b : t) = a = b

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let hash (x : t) = Hashtbl.hash x

(* [add]/[sub] are the checker's hottest bignum loops (every simulated
   FAA/counter step lands here), so both split their loop at the shorter
   operand's length: the common prefix runs with unsafe accesses and no
   per-limb bound tests, the tail is carry/borrow propagation plus one
   [Array.blit].  Indices are loop-bounded by the array lengths computed
   on entry, which is what makes the unsafe accesses safe. *)

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then b
  else if lb = 0 then a
  else begin
    let x, lx, y, ly = if la >= lb then (a, la, b, lb) else (b, lb, a, la) in
    let r = Array.make lx 0 in
    let carry = ref 0 in
    for i = 0 to ly - 1 do
      let s = Array.unsafe_get x i + Array.unsafe_get y i + !carry in
      Array.unsafe_set r i (s land limb_mask);
      carry := s lsr limb_bits
    done;
    for i = ly to lx - 1 do
      let s = Array.unsafe_get x i + !carry in
      Array.unsafe_set r i (s land limb_mask);
      carry := s lsr limb_bits
    done;
    if !carry = 0 then
      (* no growth: the top limb absorbed its carry without wrapping, so
         it is >= [x]'s (nonzero) top limb — already normalized *)
      r
    else begin
      let r' = Array.make (lx + 1) 0 in
      Array.blit r 0 r' 0 lx;
      r'.(lx) <- !carry;
      r'
    end
  end

let succ x = add x one

let sub (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if lb > la then raise Underflow;
  if lb = 0 then a
  else begin
    let r = Array.make la 0 in
    let borrow = ref 0 in
    for i = 0 to lb - 1 do
      let d = Array.unsafe_get a i - Array.unsafe_get b i - !borrow in
      if d < 0 then begin
        Array.unsafe_set r i (d + (1 lsl limb_bits));
        borrow := 1
      end
      else begin
        Array.unsafe_set r i d;
        borrow := 0
      end
    done;
    let i = ref lb in
    while !borrow = 1 && !i < la do
      let d = Array.unsafe_get a !i - 1 in
      if d < 0 then Array.unsafe_set r !i limb_mask
      else begin
        Array.unsafe_set r !i d;
        borrow := 0
      end;
      incr i
    done;
    if !borrow <> 0 then raise Underflow;
    if !i < la then Array.blit a !i r !i (la - !i);
    (* when the blit ran, [r]'s top limb is [a]'s (nonzero) top limb and
       [normalize] returns [r] itself — no copy on the fast path *)
    normalize r
  end

let mul_small (a : t) k : t =
  if k < 0 || k >= small_max then invalid_arg "Bignum.mul_small: factor out of range";
  if k = 0 || is_zero a then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let p = (a.(i) * k) + !carry in
      r.(i) <- p land limb_mask;
      carry := p lsr limb_bits
    done;
    r.(la) <- !carry;
    normalize r
  end

let divmod_small (a : t) k : t * int =
  if k < 1 || k >= small_max then invalid_arg "Bignum.divmod_small: divisor out of range";
  let la = Array.length a in
  let q = Array.make la 0 in
  let rem = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!rem lsl limb_bits) lor a.(i) in
    q.(i) <- cur / k;
    rem := cur mod k
  done;
  (normalize q, !rem)

let to_string x =
  if is_zero x then "0"
  else begin
    let buf = Buffer.create 16 in
    let rec go x =
      if not (is_zero x) then begin
        (* Peel 9 decimal digits at a time. *)
        let q, r = divmod_small x 1_000_000_000 in
        if is_zero q then Buffer.add_string buf (string_of_int r)
        else begin
          go q;
          Buffer.add_string buf (Printf.sprintf "%09d" r)
        end
      end
    in
    go x;
    Buffer.contents buf
  end

let of_string s =
  if s = "" then invalid_arg "Bignum.of_string: empty";
  let acc = ref zero in
  String.iter
    (fun c ->
      if c < '0' || c > '9' then invalid_arg "Bignum.of_string: not a digit";
      acc := add (mul_small !acc 10) (of_int (Char.code c - Char.code '0')))
    s;
  !acc

let pp fmt x = Format.pp_print_string fmt (to_string x)

let pow2 k =
  if k < 0 then invalid_arg "Bignum.pow2: negative";
  let limb = k / limb_bits and off = k mod limb_bits in
  let r = Array.make (limb + 1) 0 in
  r.(limb) <- 1 lsl off;
  r

let bit (x : t) k =
  if k < 0 then invalid_arg "Bignum.bit: negative index";
  let limb = k / limb_bits and off = k mod limb_bits in
  limb < Array.length x && x.(limb) land (1 lsl off) <> 0

let set_bit (x : t) k =
  if k < 0 then invalid_arg "Bignum.set_bit: negative index";
  let limb = k / limb_bits and off = k mod limb_bits in
  let n = max (Array.length x) (limb + 1) in
  let r = Array.make n 0 in
  Array.blit x 0 r 0 (Array.length x);
  r.(limb) <- r.(limb) lor (1 lsl off);
  r

let clear_bit (x : t) k =
  if k < 0 then invalid_arg "Bignum.clear_bit: negative index";
  let limb = k / limb_bits and off = k mod limb_bits in
  if limb >= Array.length x then x
  else begin
    let r = Array.copy x in
    r.(limb) <- r.(limb) land lnot (1 lsl off);
    normalize r
  end

let logbin f (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let r = Array.make n 0 in
  for i = 0 to n - 1 do
    r.(i) <- f (if i < la then a.(i) else 0) (if i < lb then b.(i) else 0)
  done;
  normalize r

let logand = logbin ( land )
let logor = logbin ( lor )
let logxor = logbin ( lxor )

let shift_left (x : t) k =
  if k < 0 then invalid_arg "Bignum.shift_left: negative";
  if is_zero x || k = 0 then x
  else begin
    let limbs = k / limb_bits and off = k mod limb_bits in
    let la = Array.length x in
    let r = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let v = x.(i) lsl off in
      r.(i + limbs) <- r.(i + limbs) lor (v land limb_mask);
      r.(i + limbs + 1) <- v lsr limb_bits
    done;
    normalize r
  end

let shift_right (x : t) k =
  if k < 0 then invalid_arg "Bignum.shift_right: negative";
  if is_zero x || k = 0 then x
  else begin
    let limbs = k / limb_bits and off = k mod limb_bits in
    let la = Array.length x in
    if limbs >= la then zero
    else begin
      let n = la - limbs in
      let r = Array.make n 0 in
      for i = 0 to n - 1 do
        let lo = x.(i + limbs) lsr off in
        let hi = if off > 0 && i + limbs + 1 < la then x.(i + limbs + 1) lsl (limb_bits - off) else 0 in
        r.(i) <- (lo lor hi) land limb_mask
      done;
      normalize r
    end
  end

(* Index of the highest set bit of a nonzero limb (binary search). *)
let msb v =
  let v = ref v and r = ref 0 and k = ref 16 in
  while !k > 0 do
    if !v lsr !k <> 0 then begin
      v := !v lsr !k;
      r := !r + !k
    end;
    k := !k lsr 1
  done;
  !r

(* Index of the lowest set bit of a nonzero limb: isolate the bit, then a
   de Bruijn multiply-and-lookup (limbs fit in 32 bits). *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let ctz v = debruijn.((((v land -v) * 0x077CB531) land 0xFFFF_FFFF) lsr 27)

(* Width of the value held in limbs [0 .. len - 1] of [x], top limb
   nonzero.  The strided reads below take [(x, len)] so that they serve
   both [t] and the spare-capacity buffer of {!Acc}. *)
let width_of (x : int array) len = if len = 0 then 0 else ((len - 1) * limb_bits) + msb x.(len - 1) + 1

let num_bits (x : t) = width_of x (Array.length x)

let popcount (x : t) =
  let count_limb v =
    let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + (v land 1)) in
    go v 0
  in
  Array.fold_left (fun acc v -> acc + count_limb v) 0 x

let to_hex x =
  if is_zero x then "0"
  else begin
    let buf = Buffer.create 16 in
    let nibbles = ((Array.length x * limb_bits) + 3) / 4 in
    let started = ref false in
    for j = nibbles - 1 downto 0 do
      let v =
        (if bit x ((4 * j) + 3) then 8 else 0)
        + (if bit x ((4 * j) + 2) then 4 else 0)
        + (if bit x ((4 * j) + 1) then 2 else 0)
        + if bit x (4 * j) then 1 else 0
      in
      if v <> 0 || !started then begin
        started := true;
        Buffer.add_char buf "0123456789abcdef".[v]
      end
    done;
    Buffer.contents buf
  end

let ones k =
  if k < 0 then invalid_arg "Bignum.ones: negative";
  if k = 0 then zero
  else begin
    let n = ((k - 1) / limb_bits) + 1 in
    let r = Array.make n limb_mask in
    r.(n - 1) <- (1 lsl (k - ((n - 1) * limb_bits))) - 1;
    r
  end

(* Strided access works a limb at a time.  Stream [(offset, stride)]
   owns absolute bits offset, offset + stride, ...; inside a limb those
   bits are [comb stride] shifted left by the position [f] of the
   stream's first bit there, so each limb costs one mask plus a walk
   over the set bits it holds, never a test per stream position.  Above
   the limb holding [offset], [f] is the stream's residue in the limb,
   and moving one limb up or down shifts it by [limb_bits mod stride]:
   no division per limb. *)

(* Bits 0, stride, 2 * stride, ... of a limb. *)
let comb stride =
  let m = ref 0 and k = ref 0 in
  while !k < limb_bits do
    m := !m lor (1 lsl !k);
    k := !k + stride
  done;
  !m

(* Stream bits of limb value [v] when the stream's first bit in the limb
   is at [f] (none when [f >= limb_bits]). *)
let masked ~comb v f = if f >= limb_bits then 0 else v land (comb lsl f)

let check_stride fn ~offset ~stride =
  if offset < 0 then invalid_arg ("Bignum." ^ fn ^ ": negative offset");
  if stride < 1 then invalid_arg ("Bignum." ^ fn ^ ": stride < 1")

let extract_limbs (x : int array) len ~offset ~stride =
  check_stride "extract_stride" ~offset ~stride;
  let w = width_of x len in
  if w <= offset then zero
  else begin
    let count = 1 + ((w - 1 - offset) / stride) in
    let out = Array.make (((count - 1) / limb_bits) + 1) 0 in
    let comb = comb stride and step = limb_bits mod stride in
    let l0 = offset / limb_bits in
    let d0 = offset - (l0 * limb_bits) in
    let r = ref (d0 mod stride) in
    for l = l0 to len - 1 do
      let m = ref (masked ~comb x.(l) (if l = l0 then d0 else !r)) in
      let base = (l * limb_bits) - offset in
      while !m <> 0 do
        let j = (base + ctz !m) / stride in
        m := !m land (!m - 1);
        let q = j / limb_bits in
        out.(q) <- out.(q) lor (1 lsl (j - (q * limb_bits)))
      done;
      let r' = !r - step in
      r := if r' < 0 then r' + stride else r'
    done;
    normalize out
  end

(* Highest stream bit, found from the top limb down: allocation-free,
   and for the unary streams of Theorem 1 it stops within a limb or two
   of the top. *)
let stride_width (x : int array) len ~offset ~stride =
  check_stride "stride_num_bits" ~offset ~stride;
  let l0 = offset / limb_bits in
  let comb = comb stride and step = limb_bits mod stride in
  let found l m = (((l * limb_bits) + msb m - offset) / stride) + 1 in
  let rec go l f =
    if l = l0 then
      let m = masked ~comb x.(l) (offset - (l0 * limb_bits)) in
      if m = 0 then 0 else found l m
    else
      let m = masked ~comb x.(l) f in
      if m <> 0 then found l m
      else
        let f = f + step in
        go (l - 1) (if f >= stride then f - stride else f)
  in
  if len <= l0 then 0
  else
    let d = offset - ((len - 1) * limb_bits) in
    go (len - 1) (((d mod stride) + stride) mod stride)

let extract_stride (x : t) ~offset ~stride = extract_limbs x (Array.length x) ~offset ~stride

let deposit_stride (v : t) ~offset ~stride =
  check_stride "deposit_stride" ~offset ~stride;
  let w = num_bits v in
  if w = 0 then zero
  else begin
    (* the top bit of [v] lands in the top limb: already normalized *)
    let out = Array.make (((offset + ((w - 1) * stride)) / limb_bits) + 1) 0 in
    for l = 0 to Array.length v - 1 do
      let m = ref v.(l) in
      while !m <> 0 do
        let pos = offset + (((l * limb_bits) + ctz !m) * stride) in
        m := !m land (!m - 1);
        let q = pos / limb_bits in
        out.(q) <- out.(q) lor (1 lsl (pos - (q * limb_bits)))
      done
    done;
    out
  end

module Signed = struct
  type nat = t

  let nat_add = add
  let nat_sub = sub
  let nat_deposit = deposit_stride

  type t = { neg : bool; mag : nat; shift : int }

  let zero = { neg = false; mag = zero; shift = 0 }

  let of_nat ?(neg = false) mag = { neg; mag; shift = 0 }

  let of_int k =
    if k < 0 then { neg = true; mag = of_int (-k); shift = 0 }
    else { neg = false; mag = of_int k; shift = 0 }

  let deposit_stride ?(neg = false) v ~offset ~stride =
    let shift = if offset < 0 then 0 else offset / limb_bits in
    { neg; mag = nat_deposit v ~offset:(offset - (shift * limb_bits)) ~stride; shift }

  (* [mag] moved up by [k] whole limbs. *)
  let lift (mag : nat) k = if k = 0 || is_zero mag then mag else Array.append (Array.make k 0) mag

  let add a b =
    let shift = min a.shift b.shift in
    let am = lift a.mag (a.shift - shift) and bm = lift b.mag (b.shift - shift) in
    if a.neg = b.neg then { neg = a.neg; mag = nat_add am bm; shift }
    else if compare am bm >= 0 then { neg = a.neg; mag = nat_sub am bm; shift }
    else { neg = b.neg; mag = nat_sub bm am; shift }

  let apply x d =
    let m = lift d.mag d.shift in
    if d.neg then nat_sub x m else nat_add x m

  let pp fmt d =
    if d.neg && not (is_zero d.mag) then Format.pp_print_char fmt '-';
    pp fmt (lift d.mag d.shift)
end

(* The one mutable type.  [limbs.(0 .. len - 1)] holds the value with a
   nonzero top limb, and every limb from [len] up is zero, so a carry
   can always run on into the spare capacity.  A delta touches only the
   limbs from its shift up to where its carry or borrow stops. *)
module Acc = struct
  type nat = Signed.nat
  type t = { mutable limbs : int array; mutable len : int }

  let of_nat (x : nat) = { limbs = Array.copy x; len = Array.length x }

  let to_nat a = Array.sub a.limbs 0 a.len

  (* Capacity for [n] limbs.  Growing to twice the need keeps growth
     amortized O(1) and leaves room for the next deltas. *)
  let reserve a n =
    if n > Array.length a.limbs then begin
      let limbs = Array.make (2 * n) 0 in
      Array.blit a.limbs 0 limbs 0 a.len;
      a.limbs <- limbs
    end

  let add_at a (m : nat) s =
    let lm = Array.length m in
    let top = max a.len (s + lm) in
    reserve a (top + 1);
    let x = a.limbs in
    let carry = ref 0 in
    for j = 0 to lm - 1 do
      let v = x.(s + j) + m.(j) + !carry in
      x.(s + j) <- v land limb_mask;
      carry := v lsr limb_bits
    done;
    let i = ref (s + lm) in
    while !carry <> 0 do
      let v = x.(!i) + 1 in
      x.(!i) <- v land limb_mask;
      carry := v lsr limb_bits;
      incr i
    done;
    a.len <- max top !i

  (* [m * 2^(31 s) <= a], decided before any limb is touched so that an
     underflow leaves [a] as it was. *)
  let covers a (m : nat) s =
    let lm = Array.length m in
    if s + lm <> a.len then s + lm < a.len
    else
      let rec go j =
        j < 0
        ||
        let d = a.limbs.(s + j) - m.(j) in
        if d <> 0 then d > 0 else go (j - 1)
      in
      go (lm - 1)

  let sub_at a (m : nat) s =
    if not (covers a m s) then raise Underflow;
    let x = a.limbs in
    let borrow = ref 0 in
    for j = 0 to Array.length m - 1 do
      let d = x.(s + j) - m.(j) - !borrow in
      x.(s + j) <- d land limb_mask;
      borrow := if d < 0 then 1 else 0
    done;
    let i = ref (s + Array.length m) in
    while !borrow <> 0 do
      let d = x.(!i) - 1 in
      x.(!i) <- d land limb_mask;
      if d >= 0 then borrow := 0;
      incr i
    done;
    while a.len > 0 && x.(a.len - 1) = 0 do
      a.len <- a.len - 1
    done

  let apply a (d : Signed.t) =
    if not (is_zero d.mag) then
      if d.neg then sub_at a d.mag d.shift else add_at a d.mag d.shift

  let num_bits a = width_of a.limbs a.len
  let stride_num_bits a ~offset ~stride = stride_width a.limbs a.len ~offset ~stride
  let extract_stride a ~offset ~stride = extract_limbs a.limbs a.len ~offset ~stride
end
