(* Tests for the typed base objects, run on the solo runtime (semantics)
   and the simulator (atomicity under interleaving). *)

let solo () = Solo_runtime.make ~self:0 ~n:2 ()

let test_register () =
  let module R0 = (val solo ()) in
  let module P = Prim.Make (R0) in
  let r = P.Register.make 5 in
  Alcotest.(check int) "init" 5 (P.Register.read r);
  P.Register.write r 9;
  Alcotest.(check int) "written" 9 (P.Register.read r)

let test_test_and_set () =
  let module R0 = (val solo ()) in
  let module P = Prim.Make (R0) in
  let ts = P.Test_and_set.make () in
  Alcotest.(check int) "read clean" 0 (P.Test_and_set.read ts);
  Alcotest.(check int) "first wins" 0 (P.Test_and_set.test_and_set ts);
  Alcotest.(check int) "second loses" 1 (P.Test_and_set.test_and_set ts);
  Alcotest.(check int) "read set" 1 (P.Test_and_set.read ts)

let test_two_process_ts () =
  (* Three distinct processes using a 2-process test&set must be caught. *)
  let prog : (string, string) Sim.program =
    {
      procs = 3;
      boot =
        (fun w ->
          let module R0 = (val Sim.runtime w) in
          let module P = Prim.Make (R0) in
          let ts = P.Test_and_set.make ~procs:2 () in
          for p = 0 to 2 do
            Sim.spawn w ~proc:p (fun () -> ignore (P.Test_and_set.test_and_set ts))
          done);
    }
  in
  Alcotest.check_raises "third process rejected"
    (Invalid_argument "Test_and_set: 2-process object used by 3 processes") (fun () ->
      ignore (Sim.run_to_completion prog))

let test_faa_wide () =
  let module R0 = (val solo ()) in
  let module P = Prim.Make (R0) in
  let r = P.Faa_wide.make Bignum.zero in
  let old = P.Faa_wide.fetch_and_add r (Bignum.Signed.of_int 5) in
  Alcotest.(check bool) "old was 0" true (Bignum.is_zero old);
  let old = P.Faa_wide.fetch_and_add r (Bignum.Signed.of_int (-2)) in
  Alcotest.(check string) "old was 5" "5" (Bignum.to_string old);
  Alcotest.(check string) "now 3" "3" (Bignum.to_string (P.Faa_wide.read r));
  (* A wide add beyond word size. *)
  let big = Bignum.pow2 200 in
  ignore (P.Faa_wide.fetch_and_add r (Bignum.Signed.of_nat big));
  Alcotest.(check bool) "wide value" true
    (Bignum.equal (P.Faa_wide.read r) (Bignum.add big (Bignum.of_int 3)))

let test_faa_int_swap_cas () =
  let module R0 = (val solo ()) in
  let module P = Prim.Make (R0) in
  let f = P.Faa_int.make 10 in
  Alcotest.(check int) "faa old" 10 (P.Faa_int.fetch_and_add f 3);
  Alcotest.(check int) "faa new" 13 (P.Faa_int.read f);
  let s = P.Swap.make "a" in
  Alcotest.(check string) "swap old" "a" (P.Swap.swap s "b");
  Alcotest.(check string) "swap new" "b" (P.Swap.read s);
  let c = P.Cas.make 0 in
  Alcotest.(check bool) "cas success" true (P.Cas.compare_and_swap c ~expect:0 1);
  Alcotest.(check bool) "cas failure" false (P.Cas.compare_and_swap c ~expect:0 2);
  Alcotest.(check int) "cas state" 1 (P.Cas.read c)

(* Atomicity under the simulator: n processes race on one test&set; in
   every schedule exactly one process wins. *)
let prop_ts_one_winner =
  let gen = QCheck.Gen.(list_size (return 40) (int_bound 2)) in
  let arb = QCheck.make ~print:(fun l -> String.concat "" (List.map string_of_int l)) gen in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"one test&set winner in every schedule" ~count:300 arb
       (fun choices ->
         let winners = ref 0 in
         let prog : (string, string) Sim.program =
           {
             procs = 3;
             boot =
               (fun w ->
                 let module R0 = (val Sim.runtime w) in
          let module P = Prim.Make (R0) in
                 let ts = P.Test_and_set.make () in
                 for p = 0 to 2 do
                   Sim.spawn w ~proc:p (fun () ->
                       if P.Test_and_set.test_and_set ts = 0 then incr winners)
                 done);
           }
         in
         let w = Sim.create ~n:3 in
         prog.boot w;
         List.iter
           (fun p -> if List.mem p (Sim.enabled w) then Sim.step w p)
           choices;
         let rec drain () =
           match Sim.enabled w with
           | [] -> ()
           | p :: _ ->
               Sim.step w p;
               drain ()
         in
         drain ();
         !winners = 1))

(* Same for fetch&add: concurrent adds never lose updates. *)
let prop_faa_no_lost_updates =
  let gen = QCheck.Gen.(list_size (return 60) (int_bound 2)) in
  let arb = QCheck.make ~print:(fun l -> String.concat "" (List.map string_of_int l)) gen in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"fetch&add sums all deltas" ~count:200 arb (fun choices ->
         let final = ref Bignum.zero in
         let prog : (string, string) Sim.program =
           {
             procs = 3;
             boot =
               (fun w ->
                 let module R0 = (val Sim.runtime w) in
          let module P = Prim.Make (R0) in
                 let r = P.Faa_wide.make Bignum.zero in
                 for p = 0 to 2 do
                   Sim.spawn w ~proc:p (fun () ->
                       for _ = 1 to 3 do
                         ignore (P.Faa_wide.fetch_and_add r (Bignum.Signed.of_int (p + 1)))
                       done;
                       final := P.Faa_wide.read r)
                 done);
           }
         in
         let w = Sim.create ~n:3 in
         prog.boot w;
         List.iter (fun p -> if List.mem p (Sim.enabled w) then Sim.step w p) choices;
         let rec drain () =
           match Sim.enabled w with
           | [] -> ()
           | p :: _ ->
               Sim.step w p;
               drain ()
         in
         drain ();
         (* 3*(1+2+3) = 18 *)
         Bignum.equal !final (Bignum.of_int 18)))

(* Values handed out by [fetch_and_add] and [read] are copies: the
   register's live buffer is updated in place by later writes. *)
let test_faa_wide_no_aliasing () =
  let module R0 = (val solo ()) in
  let module P = Prim.Make (R0) in
  let r = P.Faa_wide.make (Bignum.pow2 100) in
  let read0 = P.Faa_wide.read r in
  let prev = P.Faa_wide.fetch_and_add r (Bignum.Signed.of_int 7) in
  let before = Bignum.to_string read0 in
  P.Faa_wide.add r (Bignum.Signed.of_nat (Bignum.pow2 400));
  P.Faa_wide.add r (Bignum.Signed.of_int (-3));
  ignore (P.Faa_wide.fetch_and_add r (Bignum.Signed.of_nat ~neg:true (Bignum.pow2 100)));
  Alcotest.(check string) "read unchanged" before (Bignum.to_string read0);
  Alcotest.(check string) "fetch&add result unchanged" before (Bignum.to_string prev);
  Alcotest.(check string) "register moved on"
    (Bignum.to_string (Bignum.add (Bignum.pow2 400) (Bignum.of_int 4)))
    (Bignum.to_string (P.Faa_wide.read r))

(* The simulator flags state-preserving steps for the reduction layer:
   every zero-delta fetch&add (the §3 reads) is one, every nonzero
   fetch&add is not. *)
let test_faa_wide_noop_flags () =
  let prog : (string, string) Sim.program =
    {
      procs = 1;
      boot =
        (fun w ->
          let module R0 = (val Sim.runtime w) in
          let module P = Prim.Make (R0) in
          let r = P.Faa_wide.make Bignum.zero in
          Sim.spawn w ~proc:0 (fun () ->
              P.Faa_wide.add r Bignum.Signed.zero;
              P.Faa_wide.add r (Bignum.Signed.of_int 3);
              ignore (P.Faa_wide.fetch_and_add r Bignum.Signed.zero);
              ignore (P.Faa_wide.read r);
              ignore (P.Faa_wide.read_with r Bignum.Acc.num_bits);
              ignore (P.Faa_wide.fetch_and_add r (Bignum.Signed.of_int (-1)));
              P.Faa_wide.add r (Bignum.Signed.of_nat ~neg:true Bignum.zero)));
    }
  in
  let w = Sim.run_to_completion prog in
  let flags = List.filter_map (function Trace.Step { noop; _ } -> Some noop | _ -> None) (Sim.trace w) in
  Alcotest.(check (list bool)) "noop flags" [ true; false; true; true; true; false; true ] flags

(* A Theorem 1 write raises one process's unary stream by a few bits; it
   must allocate the same number of words whatever the register's width
   (the delta is sparse and the register is updated in place).  Median
   over many writes, so a doubling of the register's buffer inside the
   window cannot decide the answer.  [Gc.counters] rather than
   [Gc.quick_stat]: on OCaml 5.1 the latter's word counts move only at
   collections. *)
let test_faa_write_words_flat () =
  let words_per_write bits =
    let module R0 = (val Solo_runtime.make ~self:0 ~n:2 ()) in
    let module M = Faa_max_register.Make (R0) in
    let m = M.create () in
    let k0 = bits / 2 in
    M.write_max m k0;
    let samples =
      Array.init 64 (fun j ->
          let minor0, promoted0, major0 = Gc.counters () in
          M.write_max m (k0 + j + 1);
          let minor1, promoted1, major1 = Gc.counters () in
          minor1 +. major1 -. promoted1 -. (minor0 +. major0 -. promoted0))
    in
    Alcotest.(check int) "register width" (bits + 127) (M.width_bits m);
    Array.sort compare samples;
    samples.(32)
  in
  let narrow = words_per_write 4_096 and wide = words_per_write 32_768 in
  Alcotest.(check (float 0.)) "words per write at 4,096 vs 32,768 bits" narrow wide

let suite =
  [
    ("register", `Quick, test_register);
    ("test&set", `Quick, test_test_and_set);
    ("2-process test&set guard", `Quick, test_two_process_ts);
    ("wide fetch&add", `Quick, test_faa_wide);
    ("wide fetch&add results are copies", `Quick, test_faa_wide_no_aliasing);
    ("wide fetch&add noop flags", `Quick, test_faa_wide_noop_flags);
    ("Thm 1 write words flat in width", `Quick, test_faa_write_words_flat);
    ("int faa / swap / cas", `Quick, test_faa_int_swap_cas);
    prop_ts_one_winner;
    prop_faa_no_lost_updates;
  ]

let () = Alcotest.run "primitives" [ ("primitives", suite) ]
