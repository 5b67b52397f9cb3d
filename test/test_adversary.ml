(* Tests for Slin_adversary and the crash-extended strong-linearizability
   game ([Lincheck.check_strong_stats ~crashes]): exhaustive wait-freedom
   bounds, livelock lasso detection, the seeded crash fuzzer, Algorithm
   B's crash sweep, and budgeted graceful degradation in the checkers. *)

(* The jobs axis below must run two real domains even on a one-core
   runner, where [effective_workers] would otherwise collapse it to the
   sequential engine. *)
let () = Unix.putenv "SLIN_DOMAIN_CAP" "2"

(* ---------------- crash game vs crash-free game ----------------------- *)

(* Crash edges add no trace events, so the crash-extended tree is
   strongly linearizable iff the crash-free one is; the crash game must
   reproduce the plain verdict on every registry object it can afford,
   solved sequentially, in two columns at once, and under [reduce]. *)
let crash_game_agrees name () =
  match Registry.find name with
  | None -> Alcotest.failf "unknown registry object %s" name
  | Some (Registry.Checkable c) ->
      let (module S) = c.spec in
      let module L = Lincheck.Make (S) in
      let prog = Harness.program ~make:c.make ~workload:c.workload in
      let v = L.check_strong ?max_depth:c.default_depth prog in
      List.iter
        (fun (axis, jobs, reduce) ->
          let cv, _ =
            L.check_strong_stats ~max_nodes:2_000_000 ?max_depth:c.default_depth ~jobs ~reduce
              ~crashes:1 prog
          in
          let ok =
            match (v, cv) with
            | L.Strongly_linearizable _, L.Strongly_linearizable _
            | L.Not_linearizable _, L.Not_linearizable _
            | L.Not_strongly_linearizable _, L.Not_strongly_linearizable _ ->
                true
            | _ -> false
          in
          if not ok then
            Alcotest.failf "crash game (%s) disagrees on %s: %a vs %a" axis name L.pp_verdict v
              L.pp_verdict cv)
        [ ("jobs 1", 1, false); ("jobs 2", 2, false); ("reduce", 1, true) ]

(* [reduce_check] re-explores every memo hit, so its verdict and node
   count equal the unreduced crash game's; a memo key that forgot the
   crashed set would answer a node from a twin with a different enabled
   set and crash budget, which the re-exploration reports as a
   disagreement. *)
let test_crash_reduce_check () =
  match Registry.find "faa-max" with
  | None -> Alcotest.fail "faa-max not registered"
  | Some (Registry.Checkable c) ->
      let (module S) = c.spec in
      let module L = Lincheck.Make (S) in
      let prog = Harness.program ~make:c.make ~workload:c.workload in
      let run ~reduce_check =
        let v, st = L.check_strong_stats ~max_nodes:2_000_000 ~reduce_check ~crashes:1 prog in
        (Format.asprintf "%a" L.pp_verdict v, st.Lincheck.nodes)
      in
      let base_v, base_n = run ~reduce_check:false in
      let v, n = run ~reduce_check:true in
      Alcotest.(check string) "verdict" base_v v;
      Alcotest.(check int) "nodes" base_n n

(* ---------------- exhaustive wait-freedom bound ----------------------- *)

module A_max = Adversary.Make (Spec.Max_register)

let max_reg_prog () =
  Harness.program ~make:Executors.faa_max_register
    ~workload:
      [|
        [ Spec.Max_register.WriteMax 1; Spec.Max_register.ReadMax ];
        [ Spec.Max_register.WriteMax 2 ];
        [ Spec.Max_register.ReadMax ];
      |]

let test_wait_free_bound () =
  let r = A_max.wait_free_bound (max_reg_prog ()) in
  Alcotest.(check bool) "walk exhaustive" true (A_max.wait_free_established r);
  (* Theorem 1's operations are a single wide-F&A access: the
     adversarial bound over EVERY schedule is one step per op. *)
  Alcotest.(check int) "steps/op bound" 1 r.A_max.wf_max_steps_per_op;
  Alcotest.(check bool) "executions counted" true (r.A_max.wf_executions > 0)

let test_wait_free_budget () =
  let r = A_max.wait_free_bound ~max_nodes:10 (max_reg_prog ()) in
  Alcotest.(check bool) "budget hit" true r.A_max.wf_budget_hit;
  Alcotest.(check bool) "establishes nothing" false (A_max.wait_free_established r)

(* ---------------- livelock lasso on the HW queue ---------------------- *)

module A_q = Adversary.Make (Spec.Queue_spec)
module W_q = Witness.Make (Spec.Queue_spec)

(* Drain-heavy workload: one enqueue, two dequeues — whichever dequeue
   finds the queue empty spins forever, a certified livelock lasso. *)
let drain_prog () =
  Harness.program ~make:Executors.hw_queue
    ~workload:[| [ Spec.Queue_spec.Enq 1 ]; [ Spec.Queue_spec.Deq ]; [ Spec.Queue_spec.Deq ] |]

let test_livelock_found () =
  let prog = drain_prog () in
  let r = A_q.find_livelock prog in
  match r.A_q.lf_livelock with
  | None -> Alcotest.fail "no lasso found on the drain-heavy HW queue"
  | Some shape ->
      Alcotest.(check bool) "kind is Livelock" true (shape.Witness.kind = Witness.Livelock);
      Alcotest.(check int) "exactly one cycle" 1 (List.length shape.Witness.futures);
      (match W_q.refutes prog shape with
      | Ok true -> ()
      | Ok false -> Alcotest.fail "shrunk lasso no longer refutes"
      | Error e -> Alcotest.failf "lasso does not replay: %s" e)

let test_livelock_witness_roundtrip () =
  let prog = drain_prog () in
  match (A_q.find_livelock prog).A_q.lf_livelock with
  | None -> Alcotest.fail "no lasso found"
  | Some shape -> (
      let json =
        W_q.to_json prog ~object_name:"hw-queue-drain"
          ~spec_name:"Herlihy-Wing queue, drain-heavy (livelocks an empty deq)" ~max_nodes:0
          ~max_depth:None ~nodes:None ~original_len:(Witness.size shape) shape
      in
      match Witness.parse json with
      | Error e -> Alcotest.failf "serialized lasso does not parse: %s" e
      | Ok p ->
          Alcotest.(check bool) "kind survives" true (p.Witness.p_kind = Witness.Livelock);
          let report = W_q.replay prog p in
          if not report.W_q.reproduced then
            Alcotest.failf "livelock witness did not reproduce:@.%s"
              (String.concat "\n" report.W_q.notes))

(* No lasso on a wait-free object: every driver set completes. *)
let test_no_livelock_on_wait_free () =
  let r = A_max.find_livelock (max_reg_prog ()) in
  Alcotest.(check bool) "no lasso" true (r.A_max.lf_livelock = None);
  Alcotest.(check bool) "adversaries tried" true (r.A_max.lf_candidates > 0)

(* ---------------- seeded crash fuzzer --------------------------------- *)

module A_ts = Adversary.Make (Spec.Test_and_set)
module W_ts = Witness.Make (Spec.Test_and_set)

let tournament_prog () =
  Harness.program ~make:Executors.tournament_ts
    ~workload:(Array.make 4 [ Spec.Test_and_set.TestAndSet ])

let test_fuzz_deterministic () =
  (* A campaign is a pure function of (seed, runs, crash, max_steps):
     everything except wall-clock must coincide across reruns. *)
  let r1 = A_max.fuzz ~seed:3 ~runs:100 (max_reg_prog ()) in
  let r2 = A_max.fuzz ~seed:3 ~runs:100 (max_reg_prog ()) in
  Alcotest.(check int) "same runs" r1.A_max.fz_runs r2.A_max.fz_runs;
  Alcotest.(check int) "same crashed runs" r1.A_max.fz_crashed_runs r2.A_max.fz_crashed_runs;
  Alcotest.(check int) "same total steps" r1.A_max.fz_total_steps r2.A_max.fz_total_steps;
  Alcotest.(check bool) "SL object: no violation" true (r1.A_max.fz_violation = None)

let test_fuzz_finds_violation () =
  let prog = tournament_prog () in
  let r = A_ts.fuzz ~seed:7 ~runs:500 prog in
  match r.A_ts.fz_violation with
  | None -> Alcotest.fail "fuzzer missed the tournament T&S non-linearizability"
  | Some v -> (
      Alcotest.(check bool) "kind" true (v.A_ts.v_shape.Witness.kind = Witness.Not_linearizable);
      (* The certificate was shrunk but must still refute. *)
      (match W_ts.refutes prog v.A_ts.v_shape with
      | Ok true -> ()
      | Ok false -> Alcotest.fail "shrunk fuzz certificate no longer refutes"
      | Error e -> Alcotest.failf "fuzz certificate does not replay: %s" e);
      (* Same seed, same violation. *)
      match (A_ts.fuzz ~seed:7 ~runs:500 prog).A_ts.fz_violation with
      | Some v' ->
          Alcotest.(check int) "same run seed" v.A_ts.v_seed v'.A_ts.v_seed;
          Alcotest.(check (list int)) "same schedule" v.A_ts.v_schedule v'.A_ts.v_schedule
      | None -> Alcotest.fail "rerun with the same seed found nothing")

(* ---------------- Algorithm B under crash plans ----------------------- *)

let test_sweep_atomic_queue () =
  (* Lemma 12 with an atomic (strongly linearizable) queue: validity,
     agreement and termination hold under EVERY <=1-crash plan in the
     canonical schedule family, even though k-1 = 0 crashes would do. *)
  let r =
    Adversary.agreement_crash_sweep ~make:K_ordering.atomic_queue
      ~ordering:K_ordering.queue_witness ~inputs:[| 100; 200; 300 |] ~k:1 ~max_crashes:1 ()
  in
  Alcotest.(check (list string)) "no violations" [] r.Adversary.sw_violations;
  Alcotest.(check int) "k" 1 r.Adversary.sw_max_distinct;
  Alcotest.(check bool) "crashed runs exercised" true (r.Adversary.sw_crashed_runs > 0)

let test_sweep_hw_queue_violates () =
  (* The Herlihy-Wing queue is linearizable but not strongly so; the
     deterministic sweep finds an agreement violation under a crash. *)
  let r =
    Adversary.agreement_crash_sweep
      ~make:(K_ordering.hw_queue ~capacity:3)
      ~ordering:K_ordering.queue_witness ~inputs:[| 100; 200; 300 |] ~k:1 ~max_crashes:1 ()
  in
  Alcotest.(check bool) "violations found" true (r.Adversary.sw_violations <> [])

(* ---------------- budgeted graceful degradation ----------------------- *)

module L_max = Lincheck.Make (Spec.Max_register)

let test_budget_nodes_partial_stats () =
  let v, st = L_max.check_strong_stats ~max_nodes:10 (max_reg_prog ()) in
  (match v with
  | L_max.Out_of_budget { nodes; reason } ->
      Alcotest.(check bool) "reason" true (reason = Lincheck.Budget_nodes);
      Alcotest.(check int) "nodes counted" 11 nodes;
      (* The pinned rendering and JSON of the historical node-budget
         verdict: byte-identical, no "reason" field. *)
      Alcotest.(check string) "pinned pp" "inconclusive: budget of 11 nodes exhausted"
        (Format.asprintf "%a" L_max.pp_verdict v);
      Alcotest.(check bool) "no reason field" false
        (List.mem_assoc "reason" (L_max.verdict_fields v))
  | _ -> Alcotest.failf "expected Out_of_budget, got %a" L_max.pp_verdict v);
  Alcotest.(check bool) "partial stats populated" true (st.Lincheck.nodes > 0)

let test_budget_wall () =
  let v, _ = L_max.check_strong_stats ~budget_ms:0 (max_reg_prog ()) in
  match v with
  | L_max.Out_of_budget { reason; _ } ->
      Alcotest.(check bool) "wall reason" true (reason = Lincheck.Budget_wall);
      Alcotest.(check bool) "reason field present" true
        (List.mem_assoc "reason" (L_max.verdict_fields v))
  | _ -> Alcotest.failf "expected Out_of_budget, got %a" L_max.pp_verdict v

let test_crash_game_budget () =
  let v, _ = L_max.check_strong_stats ~max_nodes:5 ~crashes:1 (max_reg_prog ()) in
  match v with
  | L_max.Out_of_budget { nodes; reason } ->
      Alcotest.(check bool) "nodes counted" true (nodes > 0);
      Alcotest.(check bool) "reason" true (reason = Lincheck.Budget_nodes)
  | _ -> Alcotest.failf "expected inconclusive, got %a" L_max.pp_verdict v

let mult_trace () =
  (* Any queue trace will do; take one from the HW queue's standard
     workload under a fixed seed. *)
  let prog =
    Harness.program ~make:Executors.hw_queue
      ~workload:
        [|
          [ Spec.Queue_spec.Enq 1 ];
          [ Spec.Queue_spec.Enq 2 ];
          [ Spec.Queue_spec.Deq ];
          [ Spec.Queue_spec.Deq ];
        |]
  in
  Sim.trace (Sim.run_random ~seed:11 prog)

let test_mult_check_budgeted () =
  let t = mult_trace () in
  (match Mult_check.check_budgeted ~budget_nodes:0 Mult_check.Queue t with
  | Mult_check.Inconclusive { visited; reason } ->
      Alcotest.(check bool) "visited counted" true (visited > 0);
      Alcotest.(check bool) "reason" true (reason = Lincheck.Budget_nodes)
  | Mult_check.Decided _ -> Alcotest.fail "a zero-node budget cannot decide");
  match Mult_check.check_budgeted Mult_check.Queue t with
  | Mult_check.Decided b -> (
      Alcotest.(check bool) "unbudgeted agrees with check" (Mult_check.check Mult_check.Queue t) b;
      (* memoized DFS: same decision, never more states *)
      match Mult_check.check_budgeted ~reduce:true Mult_check.Queue t with
      | Mult_check.Decided b' ->
          Alcotest.(check bool) "reduced DFS agrees" b b'
      | Mult_check.Inconclusive _ -> Alcotest.fail "reduce sets no budget, nothing to trip")
  | Mult_check.Inconclusive _ -> Alcotest.fail "no budget set, nothing to trip"

let suite =
  [
    ("crash game agrees: faa-max", `Quick, crash_game_agrees "faa-max");
    ("crash game agrees: mwmr-register", `Quick, crash_game_agrees "mwmr-register");
    ("crash game agrees: tournament-ts", `Quick, crash_game_agrees "tournament-ts");
    ("crash game: reduce_check matches unreduced", `Quick, test_crash_reduce_check);
    ("wait-free bound exhaustive", `Quick, test_wait_free_bound);
    ("wait-free bound budget", `Quick, test_wait_free_budget);
    ("livelock found on HW queue", `Quick, test_livelock_found);
    ("livelock witness roundtrip", `Quick, test_livelock_witness_roundtrip);
    ("no livelock on wait-free object", `Quick, test_no_livelock_on_wait_free);
    ("fuzz deterministic", `Quick, test_fuzz_deterministic);
    ("fuzz finds violation", `Quick, test_fuzz_finds_violation);
    ("sweep: atomic queue clean", `Quick, test_sweep_atomic_queue);
    ("sweep: HW queue violates", `Quick, test_sweep_hw_queue_violates);
    ("budget: nodes + partial stats", `Quick, test_budget_nodes_partial_stats);
    ("budget: wall clock", `Quick, test_budget_wall);
    ("budget: crash game", `Quick, test_crash_game_budget);
    ("budget: multiplicity checker", `Quick, test_mult_check_budgeted);
  ]

let () = Alcotest.run "adversary" [ ("adversary", suite) ]
