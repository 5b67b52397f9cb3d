(* Unit and property tests for the Bignum substrate.

   Properties are checked against OCaml's native [int] arithmetic on values
   that fit comfortably in a word, plus targeted large-value cases built
   with [pow2] / [of_string]. *)

let nat = Alcotest.testable Bignum.pp Bignum.equal

let b = Bignum.of_int

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let test_constants () =
  Alcotest.check nat "zero" Bignum.zero (b 0);
  Alcotest.check nat "one" Bignum.one (b 1);
  Alcotest.(check bool) "is_zero zero" true (Bignum.is_zero Bignum.zero);
  Alcotest.(check bool) "is_zero one" false (Bignum.is_zero Bignum.one)

let test_of_to_int () =
  List.iter
    (fun k -> Alcotest.(check (option int)) (string_of_int k) (Some k) (Bignum.to_int_opt (b k)))
    [ 0; 1; 2; 42; 1 lsl 30; (1 lsl 31) - 1; 1 lsl 31; 1 lsl 40; max_int ];
  Alcotest.check_raises "of_int negative" (Invalid_argument "Bignum.of_int: negative") (fun () ->
      ignore (b (-1)))

let test_to_int_overflow () =
  (* OCaml ints are 63-bit: max_int = 2^62 - 1. *)
  Alcotest.(check (option int)) "2^62 does not fit" None (Bignum.to_int_opt (Bignum.pow2 62));
  Alcotest.(check (option int)) "2^61 fits" (Some (1 lsl 61)) (Bignum.to_int_opt (Bignum.pow2 61));
  Alcotest.(check (option int)) "max_int fits" (Some max_int)
    (Bignum.to_int_opt (Bignum.sub (Bignum.pow2 62) Bignum.one))

let test_add_sub () =
  Alcotest.check nat "1+1" (b 2) (Bignum.add Bignum.one Bignum.one);
  Alcotest.check nat "sub to zero" Bignum.zero (Bignum.sub (b 7) (b 7));
  Alcotest.check nat "carry chain"
    (Bignum.pow2 80)
    (Bignum.add (Bignum.sub (Bignum.pow2 80) Bignum.one) Bignum.one);
  Alcotest.check_raises "underflow" Bignum.Underflow (fun () -> ignore (Bignum.sub (b 3) (b 4)))

let test_mul_divmod_small () =
  Alcotest.check nat "7*6" (b 42) (Bignum.mul_small (b 7) 6);
  Alcotest.check nat "x*0" Bignum.zero (Bignum.mul_small (Bignum.pow2 100) 0);
  let q, r = Bignum.divmod_small (b 100) 7 in
  Alcotest.check nat "100/7" (b 14) q;
  Alcotest.(check int) "100 mod 7" 2 r;
  let big = Bignum.of_string "123456789012345678901234567890" in
  let q, r = Bignum.divmod_small big 10 in
  Alcotest.check nat "big/10" (Bignum.of_string "12345678901234567890123456789") q;
  Alcotest.(check int) "big mod 10" 0 r

let test_strings () =
  let s = "987654321098765432109876543210" in
  Alcotest.(check string) "roundtrip" s Bignum.(to_string (of_string s));
  Alcotest.(check string) "zero" "0" (Bignum.to_string Bignum.zero);
  Alcotest.(check string) "hex 255" "ff" (Bignum.to_hex (b 255));
  Alcotest.(check string) "hex 0" "0" (Bignum.to_hex Bignum.zero);
  Alcotest.(check string) "hex 2^64" "10000000000000000" (Bignum.to_hex (Bignum.pow2 64))

let test_bits () =
  let x = Bignum.set_bit (Bignum.set_bit Bignum.zero 0) 100 in
  Alcotest.(check bool) "bit 0" true (Bignum.bit x 0);
  Alcotest.(check bool) "bit 1" false (Bignum.bit x 1);
  Alcotest.(check bool) "bit 100" true (Bignum.bit x 100);
  Alcotest.(check int) "popcount" 2 (Bignum.popcount x);
  Alcotest.(check int) "num_bits" 101 (Bignum.num_bits x);
  let y = Bignum.clear_bit x 100 in
  Alcotest.check nat "clear high bit" Bignum.one y;
  Alcotest.(check int) "num_bits renormalized" 1 (Bignum.num_bits y);
  Alcotest.check nat "clear absent bit is id" x (Bignum.clear_bit x 55)

let test_logical () =
  let a = b 0b1100 and c = b 0b1010 in
  Alcotest.check nat "and" (b 0b1000) (Bignum.logand a c);
  Alcotest.check nat "or" (b 0b1110) (Bignum.logor a c);
  Alcotest.check nat "xor" (b 0b0110) (Bignum.logxor a c);
  (* Mixed widths. *)
  let big = Bignum.pow2 200 in
  Alcotest.check nat "xor self" Bignum.zero (Bignum.logxor big big);
  Alcotest.check nat "and disjoint" Bignum.zero (Bignum.logand big a)

let test_shifts () =
  Alcotest.check nat "1 lsl 31" (Bignum.pow2 31) (Bignum.shift_left Bignum.one 31);
  Alcotest.check nat "1 lsl 62" (Bignum.pow2 62) (Bignum.shift_left Bignum.one 62);
  Alcotest.check nat "shift right back" (b 13)
    (Bignum.shift_right (Bignum.shift_left (b 13) 200) 200);
  Alcotest.check nat "shift right to zero" Bignum.zero (Bignum.shift_right (b 13) 5);
  Alcotest.check nat "shift zero" Bignum.zero (Bignum.shift_left Bignum.zero 1000)

let test_stride () =
  (* Interleave two streams with stride 2: stream 0 = 0b101, stream 1 = 0b11. *)
  let r =
    Bignum.logor
      (Bignum.deposit_stride (b 0b101) ~offset:0 ~stride:2)
      (Bignum.deposit_stride (b 0b11) ~offset:1 ~stride:2)
  in
  Alcotest.check nat "stream 0" (b 0b101) (Bignum.extract_stride r ~offset:0 ~stride:2);
  Alcotest.check nat "stream 1" (b 0b11) (Bignum.extract_stride r ~offset:1 ~stride:2);
  (* Bit layout: positions 0,2,4 carry 1,0,1 and positions 1,3 carry 1,1. *)
  Alcotest.check nat "raw interleaving" (b 0b11011) r;
  Alcotest.check nat "extract from zero" Bignum.zero
    (Bignum.extract_stride Bignum.zero ~offset:3 ~stride:7)

let test_compare () =
  Alcotest.(check int) "eq" 0 (Bignum.compare (b 5) (b 5));
  Alcotest.(check bool) "lt" true (Bignum.compare (b 5) (b 6) < 0);
  Alcotest.(check bool) "big gt small" true (Bignum.compare (Bignum.pow2 64) (b max_int) > 0);
  Alcotest.(check bool) "equal" true (Bignum.equal (Bignum.pow2 10) (b 1024))

let test_signed () =
  let module S = Bignum.Signed in
  Alcotest.check nat "apply +" (b 10) (S.apply (b 7) (S.of_int 3));
  Alcotest.check nat "apply -" (b 4) (S.apply (b 7) (S.of_int (-3)));
  Alcotest.check nat "sum signs" (b 6) (S.apply (b 7) (S.add (S.of_int 4) (S.of_int (-5))));
  Alcotest.check_raises "underflow" Bignum.Underflow (fun () ->
      ignore (S.apply (b 2) (S.of_int (-3))));
  Alcotest.(check string) "pp neg" "-5" (Format.asprintf "%a" S.pp (S.of_int (-5)));
  Alcotest.(check string) "pp pos" "5" (Format.asprintf "%a" S.pp (S.of_int 5))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let small_nat_gen = QCheck.Gen.int_bound ((1 lsl 30) - 1)
let small_nat = QCheck.make ~print:string_of_int small_nat_gen

let prop name ?(count = 500) arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let properties =
  [
    prop "add agrees with int" (QCheck.pair small_nat small_nat) (fun (x, y) ->
        Bignum.equal (b (x + y)) (Bignum.add (b x) (b y)));
    prop "sub agrees with int" (QCheck.pair small_nat small_nat) (fun (x, y) ->
        let hi = max x y and lo = min x y in
        Bignum.equal (b (hi - lo)) (Bignum.sub (b hi) (b lo)));
    prop "add commutes (large)" (QCheck.pair small_nat small_nat) (fun (x, y) ->
        let gx = Bignum.shift_left (b x) 95 and gy = Bignum.shift_left (b y) 63 in
        Bignum.equal (Bignum.add gx gy) (Bignum.add gy gx));
    prop "add/sub roundtrip (large)" (QCheck.pair small_nat small_nat) (fun (x, y) ->
        let gx = Bignum.shift_left (b x) 77 in
        Bignum.equal gx (Bignum.sub (Bignum.add gx (b y)) (b y)));
    prop "mul_small agrees with int" (QCheck.pair (QCheck.make (QCheck.Gen.int_bound 0xFFFF)) (QCheck.make (QCheck.Gen.int_bound 0xFFFF)))
      (fun (x, k) -> Bignum.equal (b (x * k)) (Bignum.mul_small (b x) k));
    prop "divmod_small inverts mul" (QCheck.pair small_nat (QCheck.make (QCheck.Gen.int_range 1 1000)))
      (fun (x, k) ->
        let q, r = Bignum.divmod_small (b x) k in
        Bignum.equal (b x) (Bignum.add (Bignum.mul_small q k) (b r)) && r >= 0 && r < k);
    prop "string roundtrip" small_nat (fun x ->
        let big = Bignum.shift_left (b x) 130 in
        Bignum.equal big (Bignum.of_string (Bignum.to_string big)));
    prop "compare total order" (QCheck.pair small_nat small_nat) (fun (x, y) ->
        Bignum.compare (b x) (b y) = Stdlib.compare x y);
    prop "shift then unshift" (QCheck.pair small_nat (QCheck.make (QCheck.Gen.int_bound 300)))
      (fun (x, k) -> Bignum.equal (b x) (Bignum.shift_right (Bignum.shift_left (b x) k) k));
    prop "bit of shifted one" (QCheck.make (QCheck.Gen.int_bound 500)) (fun k ->
        let x = Bignum.pow2 k in
        Bignum.bit x k && Bignum.popcount x = 1 && Bignum.num_bits x = k + 1);
    prop "logxor cancels" (QCheck.pair small_nat small_nat) (fun (x, y) ->
        Bignum.equal (b y) (Bignum.logxor (Bignum.logxor (b x) (b y)) (b x)));
    prop "logand/logor agree with int" (QCheck.pair small_nat small_nat) (fun (x, y) ->
        Bignum.equal (b (x land y)) (Bignum.logand (b x) (b y))
        && Bignum.equal (b (x lor y)) (Bignum.logor (b x) (b y)));
    prop "set then test bit" (QCheck.pair small_nat (QCheck.make (QCheck.Gen.int_bound 400)))
      (fun (x, k) -> Bignum.bit (Bignum.set_bit (b x) k) k);
    prop "deposit/extract stride roundtrip"
      (QCheck.triple small_nat (QCheck.make (QCheck.Gen.int_bound 8)) (QCheck.make (QCheck.Gen.int_range 1 9)))
      (fun (v, offset, stride) ->
        let deposited = Bignum.deposit_stride (b v) ~offset ~stride in
        Bignum.equal (b v) (Bignum.extract_stride deposited ~offset ~stride));
    prop "disjoint streams do not interfere"
      (QCheck.pair small_nat small_nat)
      (fun (v0, v1) ->
        let n = 2 in
        let r =
          Bignum.logor
            (Bignum.deposit_stride (b v0) ~offset:0 ~stride:n)
            (Bignum.deposit_stride (b v1) ~offset:1 ~stride:n)
        in
        Bignum.equal (b v0) (Bignum.extract_stride r ~offset:0 ~stride:n)
        && Bignum.equal (b v1) (Bignum.extract_stride r ~offset:1 ~stride:n));
    prop "signed add models int add"
      (QCheck.pair (QCheck.make (QCheck.Gen.int_range (-10000) 10000)) (QCheck.make (QCheck.Gen.int_range (-10000) 10000)))
      (fun (x, y) ->
        let module S = Bignum.Signed in
        let s = S.add (S.of_int x) (S.of_int y) in
        let expect = x + y in
        if expect >= 0 then (not s.S.neg) || Bignum.is_zero s.S.mag else s.S.neg;);
    prop "signed apply models int"
      (QCheck.pair small_nat (QCheck.make (QCheck.Gen.int_range (-1000) 1000)))
      (fun (x, d) ->
        let module S = Bignum.Signed in
        QCheck.assume (x + d >= 0);
        Bignum.equal (b (x + d)) (S.apply (b x) (S.of_int d)));
  ]

(* ------------------------------------------------------------------ *)
(* Strided access and the accumulator against bit-serial references    *)
(* ------------------------------------------------------------------ *)

(* One [Bignum.bit] test per stream position: slow, obviously right. *)
let ref_extract x ~offset ~stride =
  let r = ref Bignum.zero and j = ref 0 and pos = ref offset in
  while !pos < Bignum.num_bits x do
    if Bignum.bit x !pos then r := Bignum.set_bit !r !j;
    incr j;
    pos := !pos + stride
  done;
  !r

let ref_deposit v ~offset ~stride =
  let r = ref Bignum.zero in
  for j = 0 to Bignum.num_bits v - 1 do
    if Bignum.bit v j then r := Bignum.set_bit !r (offset + (j * stride))
  done;
  !r

let of_limbs parts =
  List.fold_left (fun acc p -> Bignum.logor (Bignum.shift_left acc 30) (b p)) Bignum.zero parts

(* Random limbs, or a run of ones: the case where a carry or borrow runs
   the whole length of the value. *)
let dense_gen =
  QCheck.Gen.(
    oneof
      [
        map of_limbs (list_size (int_bound 12) (int_bound ((1 lsl 30) - 1)));
        map Bignum.ones (int_bound 300);
      ])

(* Several interleaved unary streams (runs of ones from stream bit 0), as
   the Theorem 1 register holds; [offset] itself is always one of them. *)
let unary_gen ~offset ~stride =
  QCheck.Gen.(
    map
      (fun streams ->
        List.fold_left
          (fun acc (o, k) -> Bignum.logor acc (ref_deposit (Bignum.ones k) ~offset:o ~stride))
          Bignum.zero streams)
      (pair (map (fun k -> (offset, k)) (int_bound 150))
         (list_size (int_bound 3) (pair (int_bound 80) (int_bound 150)))
      |> map (fun (s0, rest) -> s0 :: rest)))

let stride_case_gen =
  QCheck.Gen.(
    let* stride = oneof [ return 1; int_range 2 9; int_range 29 33; int_range 60 70 ] in
    let* offset = oneof [ int_bound 5; int_range 28 34; int_range 60 100 ] in
    let* x = oneof [ dense_gen; unary_gen ~offset ~stride ] in
    return (x, offset, stride))

let stride_case =
  QCheck.make
    ~print:(fun (x, offset, stride) ->
      Printf.sprintf "x=0x%s offset=%d stride=%d" (Bignum.to_hex x) offset stride)
    stride_case_gen

(* Accumulator deltas: (negative?, magnitude, limb shift). *)
let delta_gen = QCheck.Gen.(triple bool dense_gen (int_bound 6))

let acc_case =
  QCheck.make
    ~print:(fun (x, ds) ->
      Printf.sprintf "x=0x%s deltas=[%s]" (Bignum.to_hex x)
        (String.concat "; "
           (List.map
              (fun (neg, m, s) -> Printf.sprintf "%s0x%s<<%d limbs" (if neg then "-" else "+") (Bignum.to_hex m) s)
              ds)))
    QCheck.Gen.(pair dense_gen (list_size (int_bound 20) delta_gen))

let stride_properties =
  [
    prop "strided ops match bit-serial reference" stride_case
      (fun (x, offset, stride) ->
        let e = ref_extract x ~offset ~stride in
        let acc = Bignum.Acc.of_nat x in
        Bignum.equal e (Bignum.extract_stride x ~offset ~stride)
        && Bignum.equal e (Bignum.Acc.extract_stride acc ~offset ~stride)
        && Bignum.num_bits e = Bignum.Acc.stride_num_bits acc ~offset ~stride
        && Bignum.equal (ref_deposit x ~offset ~stride) (Bignum.deposit_stride x ~offset ~stride)
        && Bignum.equal (ref_deposit x ~offset ~stride)
             (Bignum.Signed.apply Bignum.zero (Bignum.Signed.deposit_stride x ~offset ~stride)));
    prop "accumulator matches immutable add/sub" ~count:1000 acc_case (fun (x, ds) ->
        let acc = Bignum.Acc.of_nat x in
        List.fold_left
          (fun expect (neg, mag, shift) ->
            let d = { Bignum.Signed.neg; mag; shift } in
            let m = Bignum.shift_left mag (31 * shift) in
            match if neg then Bignum.sub expect m else Bignum.add expect m with
            | next ->
                Bignum.Acc.apply acc d;
                if not (Bignum.equal next (Bignum.Acc.to_nat acc)) then
                  QCheck.Test.fail_reportf "after delta: 0x%s, expected 0x%s"
                    (Bignum.to_hex (Bignum.Acc.to_nat acc)) (Bignum.to_hex next);
                next
            | exception Bignum.Underflow ->
                (match Bignum.Acc.apply acc d with
                | () -> QCheck.Test.fail_report "underflow not raised"
                | exception Bignum.Underflow -> ());
                if not (Bignum.equal expect (Bignum.Acc.to_nat acc)) then
                  QCheck.Test.fail_report "underflow changed the accumulator";
                expect)
          x ds
        |> Bignum.equal (Bignum.Acc.to_nat acc)
        && Bignum.Acc.num_bits acc = Bignum.num_bits (Bignum.Acc.to_nat acc)
        (* strided reads of a buffer with spare capacity *)
        && List.for_all
             (fun (offset, stride) ->
               let e = ref_extract (Bignum.Acc.to_nat acc) ~offset ~stride in
               Bignum.equal e (Bignum.Acc.extract_stride acc ~offset ~stride)
               && Bignum.num_bits e = Bignum.Acc.stride_num_bits acc ~offset ~stride)
             [ (0, 1); (1, 3); (35, 40) ]);
  ]

let suite =
  [
    ("constants", `Quick, test_constants);
    ("of/to int", `Quick, test_of_to_int);
    ("to_int overflow", `Quick, test_to_int_overflow);
    ("add/sub", `Quick, test_add_sub);
    ("mul/divmod small", `Quick, test_mul_divmod_small);
    ("strings", `Quick, test_strings);
    ("bits", `Quick, test_bits);
    ("logical", `Quick, test_logical);
    ("shifts", `Quick, test_shifts);
    ("stride", `Quick, test_stride);
    ("compare", `Quick, test_compare);
    ("signed", `Quick, test_signed);
  ]
  @ properties @ stride_properties

let () = Alcotest.run "bignum" [ ("bignum", suite) ]
