(* Experiment drivers: each function regenerates one table of
   EXPERIMENTS.md (the executable counterpart of the paper's figure and
   theorems).  Used by bench/main.exe and the slin CLI. *)

let hr () = Format.printf "%s@." (String.make 78 '-')

let section title =
  hr ();
  Format.printf "%s@." title;
  hr ()

(* ------------------------------------------------------------------ *)
(* E1: Figure 1 — every arrow verified                                  *)
(* ------------------------------------------------------------------ *)

(* One row: run the strong-linearizability game on a small workload and
   measure worst steps/operation over random schedules. *)
module E1_row (S : Spec.S) = struct
  module L = Lincheck.Make (S)

  let run ~name ~progress ~make ~workload ?max_nodes ?max_depth () =
    let prog = Harness.program ~make ~workload in
    let verdict = L.check_strong ?max_nodes ?max_depth prog in
    let m = Progress.measure ~runs:60 prog in
    Format.printf "| %-34s | %-9s | %-36s | steps/op <= %d@." name progress
      (Format.asprintf "%a" L.pp_verdict verdict)
      m.Progress.max_steps_per_op
end

let e1 () =
  section
    "E1 (Figure 1): strong linearizability of every construction, verified\n\
     exhaustively on bounded workloads; steps/op bounds over random schedules";
  let module Row_max = E1_row (Spec.Max_register) in
  Row_max.run ~name:"Thm 1: max register <- F&A" ~progress:"wait-free"
    ~make:Executors.faa_max_register
    ~workload:
      [|
        [ Spec.Max_register.WriteMax 1; Spec.Max_register.ReadMax ];
        [ Spec.Max_register.WriteMax 2 ];
        [ Spec.Max_register.ReadMax ];
      |]
    ();
  let module Row_snap = E1_row (Executors.Snap3) in
  Row_snap.run ~name:"Thm 2: snapshot <- F&A" ~progress:"wait-free" ~make:Executors.faa_snapshot3
    ~workload:
      [|
        [ Executors.Snap3.Update (0, 1); Executors.Snap3.Update (0, 2) ];
        [ Executors.Snap3.Update (1, 3) ];
        [ Executors.Snap3.Scan; Executors.Snap3.Scan ];
      |]
    ();
  let module Row_counter = E1_row (Spec.Counter) in
  Row_counter.run ~name:"Thm 3: counter <- atomic snapshot" ~progress:"wait-free"
    ~make:Executors.simple_counter_atomic_snap
    ~workload:
      [| [ Spec.Counter.Add 1 ]; [ Spec.Counter.Add 2 ]; [ Spec.Counter.Read; Spec.Counter.Read ] |]
    ();
  Row_counter.run ~name:"Thm 4: counter <- snapshot (Alg 1)" ~progress:"wait-free"
    ~make:Executors.simple_counter
    ~workload:
      [| [ Spec.Counter.Add 1 ]; [ Spec.Counter.Add 2 ]; [ Spec.Counter.Read; Spec.Counter.Read ] |]
    ();
  let module Row_uset = E1_row (Simple_instances.Union_set_spec) in
  Row_uset.run ~name:"Thm 4: union set <- snapshot" ~progress:"wait-free"
    ~make:Executors.union_set
    ~workload:
      Simple_instances.Union_set_type.
        [| [ Insert 1 ]; [ Insert 2 ]; [ Contains 1; Contains 2 ] |]
    ();
  let module Row_clock = E1_row (Spec.Logical_clock) in
  Row_clock.run ~name:"Thm 4: logical clock <- snapshot" ~progress:"wait-free"
    ~make:Executors.simple_logical_clock
    ~workload:
      [|
        [ Spec.Logical_clock.Tick ];
        [ Spec.Logical_clock.Tick ];
        [ Spec.Logical_clock.Read; Spec.Logical_clock.Read ];
      |]
    ();
  let module Row_stmax = E1_row (Spec.Max_register) in
  Row_stmax.run ~name:"Thm 4: max register <- snapshot" ~progress:"wait-free"
    ~make:Executors.simple_max_register
    ~workload:
      [|
        [ Spec.Max_register.WriteMax 2 ];
        [ Spec.Max_register.WriteMax 1 ];
        [ Spec.Max_register.ReadMax; Spec.Max_register.ReadMax ];
      |]
    ();
  let module Row_ts = E1_row (Spec.Test_and_set) in
  Row_ts.run ~name:"Thm 5: readable T&S <- T&S" ~progress:"wait-free" ~make:Executors.readable_ts
    ~workload:
      [|
        [ Spec.Test_and_set.TestAndSet ];
        [ Spec.Test_and_set.TestAndSet ];
        [ Spec.Test_and_set.Read; Spec.Test_and_set.Read ];
      |]
    ();
  let module Row_msts = E1_row (Spec.Multishot_test_and_set) in
  Row_msts.run ~name:"Thm 6: multi-shot T&S <- maxreg+rT&S" ~progress:"wait-free"
    ~make:Executors.multishot_ts_atomic
    ~workload:
      [|
        [ Spec.Multishot_test_and_set.TestAndSet; Spec.Multishot_test_and_set.Reset ];
        [ Spec.Multishot_test_and_set.TestAndSet ];
        [ Spec.Multishot_test_and_set.Read ];
      |]
    ();
  Row_msts.run ~name:"Cor 7: multi-shot T&S <- T&S+F&A" ~progress:"wait-free"
    ~make:Executors.multishot_ts_composed
    ~workload:
      [|
        [ Spec.Multishot_test_and_set.TestAndSet; Spec.Multishot_test_and_set.Reset ];
        [ Spec.Multishot_test_and_set.TestAndSet ];
      |]
    ~max_nodes:2_000_000 ();
  let module Row_fi = E1_row (Spec.Fetch_and_inc) in
  Row_fi.run ~name:"Thm 9: fetch&inc <- T&S" ~progress:"lock-free" ~make:Executors.ts_fetch_inc
    ~workload:
      [|
        [ Spec.Fetch_and_inc.FetchInc ];
        [ Spec.Fetch_and_inc.FetchInc ];
        [ Spec.Fetch_and_inc.Read ];
      |]
    ();
  let module Row_set = E1_row (Spec.Set_obj) in
  Row_set.run ~name:"Thm 10: set <- T&S (Alg 2)" ~progress:"lock-free"
    ~make:Executors.ts_set_atomic_fi
    ~workload:[| [ Spec.Set_obj.Put 1 ]; [ Spec.Set_obj.Take ] |]
    ();
  Row_set.run ~name:"Thm 10: set <- T&S (full stack)" ~progress:"lock-free"
    ~make:Executors.ts_set_full
    ~workload:[| [ Spec.Set_obj.Put 1 ]; [ Spec.Set_obj.Take ] |]
    ~max_nodes:2_000_000 ()

(* ------------------------------------------------------------------ *)
(* E2: the other side — refutations of the baselines                   *)
(* ------------------------------------------------------------------ *)

module E2_row (S : Spec.S) = struct
  module L = Lincheck.Make (S)
  module W = Witness.Make (S)

  (* [reg] is the object's name in [Registry]; refuted rows with a
     registry name get a minimized-witness column ("w ORIG>SHRUNK"
     certificate step counts) and, when [witness_dir] is set, a
     slin-witness/v1 artifact at DIR/REG.json replayable with
     `slin explain`. *)
  let run ~name ~expect ~make ~workload ?reg ?witness_dir ?max_nodes ?max_depth ?(jobs = 1)
      ?profiler ?coverage () =
    let prog = Harness.program ~make ~workload in
    let lin =
      match Harness.find_non_linearizable ~check:L.is_linearizable ~runs:150 prog with
      | None -> "linearizable (150 random runs)"
      | Some seed -> Printf.sprintf "NOT LINEARIZABLE (seed %d)!" seed
    in
    (* Unique-worlds delta for this row: coverage is shared across the
       whole E2 pass, so the column counts worlds no earlier row
       reached — cumulative novelty, deterministic at -j 1. *)
    let unique_before =
      match coverage with Some c -> (Coverage.stats c).Coverage.unique | None -> 0
    in
    let verdict =
      fst (L.check_strong_stats ?max_nodes ?max_depth ~jobs ?profiler ?coverage prog)
    in
    let coverage_col =
      match coverage with
      | None -> ""
      | Some c ->
          Printf.sprintf " | u +%d" ((Coverage.stats c).Coverage.unique - unique_before)
    in
    let forensics kind schedule nodes reg =
      match W.extract ?max_nodes ?max_depth prog ~kind ~schedule with
      | None -> "w ?"
      | Some shape ->
          let original_len = Witness.size shape in
          let shape = W.shrink prog shape in
          (match witness_dir with
          | None -> ()
          | Some dir ->
              let json =
                W.to_json prog ~object_name:reg ~spec_name:name
                  ~max_nodes:(Option.value max_nodes ~default:200_000)
                  ~max_depth ~nodes ~original_len shape
              in
              let path = Filename.concat dir (reg ^ ".json") in
              Out_channel.with_open_text path (fun oc ->
                  output_string oc (Obs_json.to_string json);
                  output_char oc '\n'));
          Printf.sprintf "w %d>%d" original_len (Witness.size shape)
    in
    let witness_col =
      match (verdict, reg) with
      | L.Not_linearizable { schedule }, Some reg ->
          forensics Witness.Not_linearizable schedule None reg
      | L.Not_strongly_linearizable { witness; nodes }, Some reg ->
          forensics Witness.Not_strongly_linearizable witness (Some nodes) reg
      | _ -> "-"
    in
    Format.printf "| %-34s | %-30s | %-36s | %-7s%s | expect: %s@." name lin
      (Format.asprintf "%a" L.pp_verdict verdict)
      witness_col coverage_col expect
end

let e2 ?witness_dir ?(jobs = 1) ?profiler ?coverage ~quick () =
  section
    "E2: baselines from the same primitives are linearizable but NOT\n\
     strongly linearizable (mechanical refutations; cf. Thm 17 and GHW/HHW)";
  let module Row_reg = E2_row (Spec.Register) in
  Row_reg.run ~name:"MWMR register <- SWMR registers" ~expect:"refuted (HHW PODC'12)"
    ~make:Executors.mwmr_register
    ~workload:
      [|
        [ Spec.Register.Write 1 ];
        [ Spec.Register.Write 2 ];
        [ Spec.Register.Read; Spec.Register.Read ];
      |]
    ~reg:"mwmr-register" ?witness_dir ~max_nodes:2_000_000 ~jobs ?profiler ?coverage ();
  let module Row_max = E2_row (Spec.Max_register) in
  Row_max.run ~name:"RW max register <- registers" ~expect:"refuted (DW DISC'15)"
    ~make:Executors.rw_max_register
    ~workload:
      [|
        [ Spec.Max_register.WriteMax 1 ];
        [ Spec.Max_register.WriteMax 2 ];
        [ Spec.Max_register.ReadMax; Spec.Max_register.ReadMax ];
      |]
    ~reg:"rw-max" ?witness_dir ~max_nodes:2_000_000 ~jobs ?profiler ?coverage ();
  if not quick then begin
    let module Row_q = E2_row (Spec.Queue_spec) in
    Row_q.run ~name:"HW queue <- F&A+swap" ~expect:"refuted (Thm 17)" ~make:Executors.hw_queue
      ~workload:
        [|
          [ Spec.Queue_spec.Enq 1 ];
          [ Spec.Queue_spec.Enq 2 ];
          [ Spec.Queue_spec.Deq ];
          [ Spec.Queue_spec.Deq ];
        |]
      ~reg:"hw-queue" ?witness_dir ~max_nodes:3_000_000 ~max_depth:22 ~jobs ?profiler ?coverage ();
    let module Row_s = E2_row (Spec.Stack_spec) in
    Row_s.run ~name:"AGM stack <- F&A+swap" ~expect:"refuted (Thm 17, AE DISC'19)"
      ~make:Executors.agm_stack
      ~workload:
        [|
          [ Spec.Stack_spec.Push 1 ];
          [ Spec.Stack_spec.Push 2 ];
          [ Spec.Stack_spec.Pop ];
          [ Spec.Stack_spec.Pop ];
        |]
      ~reg:"agm-stack" ?witness_dir ~max_nodes:5_000_000 ~max_depth:24 ~jobs ?profiler ?coverage ();
    (* The AAD snapshot — GHW's original counterexample object.  Its
       embedded-scan helping makes the game tree explode.  The incremental
       engine settles this workload exhaustively (~345k nodes, previously
       Out_of_budget at 150k): the bounded game IS won here, so the known
       refutation (GHW STOC'11) needs a larger workload — more racing
       updates against the double-collect — which remains beyond exhaustive
       reach; the row documents that honestly. *)
    let module Row_sn = E2_row (Executors.Snap2) in
    Row_sn.run ~name:"AAD snapshot <- SWMR registers"
      ~expect:"SL at this workload; GHW refutation needs larger one"
      ~make:Executors.rw_snapshot2
      ~workload:
        [|
          [ Executors.Snap2.Update (0, 1); Executors.Snap2.Update (0, 2) ];
          [ Executors.Snap2.Scan; Executors.Snap2.Scan ];
        |]
      ~max_nodes:1_500_000 ~max_depth:18 ~jobs ?profiler ?coverage ()
  end;
  (* FINDING (DESIGN.md §6): Algorithm 2's EMPTY-returning take breaks
     prefix-closure once two puts race a take — the checker refutes
     Theorem 10's own setting (distinct items, atomic bases).  The E1
     rows verify the fragment their workloads can reach; this row pins
     the gap. *)
  let module Row_set = E2_row (Spec.Set_obj) in
  Row_set.run ~name:"Alg 2 set, EMPTY race (finding)" ~expect:"refuted — gap in Thm 10 proof"
    ~make:Executors.ts_set_atomic_fi
    ~workload:[| [ Spec.Set_obj.Put 1 ]; [ Spec.Set_obj.Put 2 ]; [ Spec.Set_obj.Take ] |]
    ~reg:"set-empty-race" ?witness_dir ~max_nodes:4_000_000 ~jobs ?profiler ?coverage ();
  (* The naive tournament n-process T&S from 2-process T&S: not even
     linearizable — a loser can complete before the eventual winner
     invokes.  Why Afek-Gafni-Tromp-Vitanyi needed more than a
     tournament, and a negative control for the checker. *)
  let module Row_tts = E2_row (Spec.Test_and_set) in
  Row_tts.run ~name:"tournament T&S <- 2-proc T&S" ~expect:"NOT linearizable (AGTV context)"
    ~make:Executors.tournament_ts
    ~workload:(Array.make 4 [ Spec.Test_and_set.TestAndSet ])
    ~reg:"tournament-ts" ?witness_dir ~max_nodes:2_000_000 ~jobs ?profiler ?coverage ();
  (* Multi-shot AWW fetch&inc with a cached-hint read: the regressing
     hint makes Read non-linearizable outright — the second negative
     control, and the reason Theorem 9 re-scans instead of caching. *)
  let module Row_afi = E2_row (Spec.Fetch_and_inc) in
  Row_afi.run ~name:"AWW multi-shot F&I, hint read" ~expect:"NOT linearizable (stale hint)"
    ~make:Executors.aww_multishot_fi
    ~workload:
      [|
        [ Spec.Fetch_and_inc.FetchInc ];
        [ Spec.Fetch_and_inc.FetchInc ];
        [ Spec.Fetch_and_inc.Read ];
      |]
    ~reg:"aww-multishot-fi" ?witness_dir ~max_nodes:2_000_000 ~jobs ?profiler ?coverage ();
  (* Positive controls: implementations that must pass. *)
  let module Row_fi = E2_row (Spec.Fetch_and_inc) in
  Row_fi.run ~name:"AWW one-shot fetch&inc <- T&S" ~expect:"verified (paper, Sec 1)"
    ~make:Executors.aww_one_shot_fi
    ~workload:
      [|
        [ Spec.Fetch_and_inc.FetchInc ];
        [ Spec.Fetch_and_inc.FetchInc ];
        [ Spec.Fetch_and_inc.FetchInc ];
      |]
    ~jobs ?profiler ?coverage ();
  let module Row_cq = E2_row (Spec.Queue_spec) in
  Row_cq.run ~name:"CAS universal queue" ~expect:"verified (universal primitive)"
    ~make:Executors.cas_queue
    ~workload:
      [|
        [ Spec.Queue_spec.Enq 1 ];
        [ Spec.Queue_spec.Enq 2 ];
        [ Spec.Queue_spec.Deq; Spec.Queue_spec.Deq ];
      |]
    ~max_nodes:2_000_000 ~max_depth:30 ~jobs ?profiler ?coverage ()

(* ------------------------------------------------------------------ *)
(* E3: Lemma 12 — k-set agreement from strongly-linearizable objects   *)
(* ------------------------------------------------------------------ *)

let e3_row ~name ~make ~ordering ~inputs ~trials ~crash_prob ~seed =
  let stats = Agreement.run_many ~make ~ordering ~inputs ~trials ~crash_prob ~seed () in
  let n = Array.length inputs in
  Format.printf "| %-34s | n=%d k=%d | %a@." name n
    (ordering.K_ordering.degree ~n)
    Agreement.pp_stats stats

let e3 () =
  section
    "E3 (Lemma 12): Algorithm B solves k-set agreement from strongly-\n\
     linearizable k-ordering objects (random schedules, some with crashes)";
  let i3 = [| 100; 200; 300 |] and i5 = [| 1; 2; 3; 4; 5 |] in
  e3_row ~name:"queue (atomic)" ~make:K_ordering.atomic_queue ~ordering:K_ordering.queue_witness
    ~inputs:i3 ~trials:1000 ~crash_prob:0.0 ~seed:7;
  e3_row ~name:"queue (atomic, crashes)" ~make:K_ordering.atomic_queue
    ~ordering:K_ordering.queue_witness ~inputs:i3 ~trials:1000 ~crash_prob:0.5 ~seed:8;
  e3_row ~name:"stack (atomic)" ~make:K_ordering.atomic_stack ~ordering:K_ordering.stack_witness
    ~inputs:i3 ~trials:1000 ~crash_prob:0.0 ~seed:9;
  e3_row ~name:"queue with multiplicity" ~make:K_ordering.atomic_queue
    ~ordering:K_ordering.queue_multiplicity_witness ~inputs:i3 ~trials:500 ~crash_prob:0.0
    ~seed:10;
  e3_row ~name:"1-stuttering queue" ~make:K_ordering.atomic_queue
    ~ordering:(K_ordering.stuttering_queue_witness ~m:1)
    ~inputs:i3 ~trials:500 ~crash_prob:0.0 ~seed:11;
  e3_row ~name:"1-stuttering stack" ~make:K_ordering.atomic_stack
    ~ordering:(K_ordering.stuttering_stack_witness ~m:1)
    ~inputs:i3 ~trials:500 ~crash_prob:0.0 ~seed:12;
  e3_row ~name:"2-ooo queue (n=5 > 2k)" ~make:(K_ordering.atomic_ooo_queue ~k:2)
    ~ordering:(K_ordering.ooo_queue_witness ~k:2)
    ~inputs:i5 ~trials:1000 ~crash_prob:0.0 ~seed:13;
  Format.printf "(expected: zero violations everywhere; max-distinct reaches k)@."

(* ------------------------------------------------------------------ *)
(* E4: the impossibility mechanism — B over a non-SL queue disagrees   *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section
    "E4 (Thm 17 mechanism): Algorithm B over the Herlihy-Wing queue\n\
     (linearizable, NOT strongly linearizable) loses agreement";
  let i3 = [| 100; 200; 300 |] in
  e3_row ~name:"HW queue <- F&A+swap" ~make:(K_ordering.hw_queue ~capacity:3)
    ~ordering:K_ordering.queue_witness ~inputs:i3 ~trials:4000 ~crash_prob:0.0 ~seed:7;
  e3_row ~name:"HW queue (crashes)" ~make:(K_ordering.hw_queue ~capacity:3)
    ~ordering:K_ordering.queue_witness ~inputs:i3 ~trials:4000 ~crash_prob:0.5 ~seed:11;
  e3_row ~name:"RW queue w/ multiplicity [11]" ~make:Rw_mult_queue.instance
    ~ordering:K_ordering.queue_multiplicity_witness ~inputs:i3 ~trials:4000 ~crash_prob:0.0
    ~seed:5;
  e3_row ~name:"RW stack w/ multiplicity [11]" ~make:Rw_mult_queue.stack_instance
    ~ordering:K_ordering.stack_multiplicity_witness ~inputs:i3 ~trials:4000 ~crash_prob:0.0
    ~seed:9;
  Format.printf
    "(expected: agreement violations > 0 — the adversary exploits the\n\
     unfixed linearization order; contrast with E3's zero)@."

(* ------------------------------------------------------------------ *)
(* E5: width of the wide fetch&add register (paper Sec 6)              *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* E8: checker scalability ablation                                     *)
(* ------------------------------------------------------------------ *)

(* How the strong-linearizability game scales with workload size — the
   practical limit of exhaustive verification (and why E2's AAD row
   needed the incremental engine to settle).  Rows grow the Theorem 1
   workload. *)
let e8 () =
  section "E8 (ablation): cost of the strong-linearizability game vs workload";
  let module L = Lincheck.Make (Spec.Max_register) in
  Format.printf "| %-34s | %-12s | %-10s | seconds@." "workload (Thm 1 max register)" "verdict"
    "nodes";
  List.iter
    (fun (label, workload) ->
      let t0 = Unix.gettimeofday () in
      let v = L.check_strong ~max_nodes:3_000_000 (Harness.program ~make:Executors.faa_max_register ~workload) in
      let dt = Unix.gettimeofday () -. t0 in
      let verdict, nodes =
        match v with
        | L.Strongly_linearizable { nodes } -> ("SL", nodes)
        | L.Not_linearizable _ -> ("NOT-LIN", -1)
        | L.Not_strongly_linearizable { nodes; _ } -> ("NOT-SL", nodes)
        | L.Out_of_budget { nodes; _ } -> ("budget", nodes)
      in
      Format.printf "| %-34s | %-12s | %-10d | %.2f@." label verdict nodes dt)
    [
      ("2 procs x 1 op", [| [ Spec.Max_register.WriteMax 1 ]; [ Spec.Max_register.ReadMax ] |]);
      ( "2 procs x 2 ops",
        [|
          [ Spec.Max_register.WriteMax 1; Spec.Max_register.ReadMax ];
          [ Spec.Max_register.WriteMax 2; Spec.Max_register.ReadMax ];
        |] );
      ( "3 procs x 2 ops",
        [|
          [ Spec.Max_register.WriteMax 1; Spec.Max_register.ReadMax ];
          [ Spec.Max_register.WriteMax 2; Spec.Max_register.ReadMax ];
          [ Spec.Max_register.ReadMax; Spec.Max_register.WriteMax 3 ];
        |] );
      ( "4 procs x 2 ops",
        [|
          [ Spec.Max_register.WriteMax 1; Spec.Max_register.ReadMax ];
          [ Spec.Max_register.WriteMax 2; Spec.Max_register.ReadMax ];
          [ Spec.Max_register.ReadMax; Spec.Max_register.WriteMax 3 ];
          [ Spec.Max_register.WriteMax 4; Spec.Max_register.ReadMax ];
        |] );
    ];
  Format.printf
    "(shape: node count grows with the multinomial of interleavings; one-step\n\
     operations keep Theorem 1 tractable at sizes where multi-step objects\n\
     explode — compare E2's AAD snapshot row)@."

let e5 () =
  section
    "E5 (Sec 6): bits used by the single wide fetch&add register\n\
     (max register: unary per process; snapshot: binary per process)";
  Format.printf "| %-12s | %-10s | %-18s | %-18s@." "n processes" "max value" "maxreg bits"
    "snapshot bits";
  List.iter
    (fun (n, v) ->
      (* Run n processes, each writing 1..v round-robin, in the simulator. *)
      let max_bits = ref 0 and snap_bits = ref 0 in
      let prog : (string, string) Sim.program =
        {
          procs = n;
          boot =
            (fun w ->
              let module R = (val Sim.runtime w) in
              let module M = Faa_max_register.Make (R) in
              let module S = Faa_snapshot.Make (R) in
              let m = M.create () and s = S.create () in
              for p = 0 to n - 1 do
                Sim.spawn w ~proc:p (fun () ->
                    for x = 1 to v do
                      M.write_max m x;
                      S.update s x
                    done;
                    max_bits := max !max_bits (M.width_bits m);
                    snap_bits := max !snap_bits (S.width_bits s))
              done);
        }
      in
      Sim.dispose (Sim.run_to_completion prog);
      Format.printf "| %-12d | %-10d | %-18d | %-18d@." n v !max_bits !snap_bits)
    [ (2, 8); (2, 64); (4, 8); (4, 64); (8, 64); (16, 64); (4, 1024) ];
  Format.printf
    "(expected shape: maxreg ~ n*v bits — unary; snapshot ~ n*log2(v) bits —\n\
     binary; both exceed a machine word quickly, cf. the paper's open\n\
     question about O(log n)-bit implementations)@."

(* ------------------------------------------------------------------ *)
(* E7: the adversary — crashes and progress properties                  *)
(* ------------------------------------------------------------------ *)

(* One row per construction, three adversarial checks:
   - the strong-linearizability game replayed on the execution tree
     extended with crash edges (at most one crash per branch), which
     must agree with the crash-free verdict (crash edges add no trace
     events — the column cross-validates that equivalence mechanically);
   - an exhaustive wait-freedom bound: worst steps/operation over every
     schedule of the workload ("exhaustive" only when the whole tree was
     walked — a truncated walk establishes nothing);
   - a lock-freedom lasso search: drive every candidate process subset
     and look for a repeating no-completion cycle, certified as a
     [Livelock] witness. *)
module E7_row (S : Spec.S) = struct
  module L = Lincheck.Make (S)
  module A = Adversary.Make (S)

  let run ~name ~make ~workload ?max_nodes ?max_depth ?wf_max_nodes ?jobs () =
    let prog = Harness.program ~make ~workload in
    let v = L.check_strong ?max_nodes ?max_depth prog in
    (* Crash edges enlarge the tree ~(n+1)x per allowed crash: a larger
       default node budget than the crash-free game's. *)
    let cv, _ =
      L.check_strong_stats
        ~max_nodes:(Option.value max_nodes ~default:2_000_000)
        ?max_depth ?jobs ~crashes:1 prog
    in
    let crash_col =
      let tag, nodes =
        match cv with
        | L.Strongly_linearizable { nodes } -> ("SL", nodes)
        | L.Not_linearizable _ -> ("NOT-LIN", -1)
        | L.Not_strongly_linearizable { nodes; _ } -> ("NOT-SL", nodes)
        | L.Out_of_budget { nodes; _ } -> ("budget", nodes)
      in
      let agrees =
        match (v, cv) with
        | L.Strongly_linearizable _, L.Strongly_linearizable _
        | L.Not_linearizable _, L.Not_linearizable _
        | L.Not_strongly_linearizable _, L.Not_strongly_linearizable _ ->
            "agrees"
        | _, L.Out_of_budget _ -> "-"
        | _ -> "DISAGREES"
      in
      if nodes < 0 then Printf.sprintf "%s (%s)" tag agrees
      else Printf.sprintf "%s %dn (%s)" tag nodes agrees
    in
    let wf = A.wait_free_bound ?max_nodes:wf_max_nodes ?max_depth prog in
    let wf_col =
      if A.wait_free_established wf then
        Printf.sprintf "steps/op <= %d exhaustive" wf.A.wf_max_steps_per_op
      else
        Printf.sprintf "steps/op >= %d (%s)" wf.A.wf_max_steps_per_op
          (if wf.A.wf_budget_hit then "budget" else "truncated")
    in
    let lf = A.find_livelock prog in
    let lf_col =
      match lf.A.lf_livelock with
      | Some shape -> Printf.sprintf "LIVELOCK (%d-step lasso)" (Witness.size shape)
      | None -> Printf.sprintf "no lasso (%d adversaries)" lf.A.lf_candidates
    in
    Format.printf "| %-34s | %-22s | %-25s | %s@." name crash_col wf_col lf_col
end

(* One row per k-ordering object: Algorithm B under every crash plan of
   at most (k-1) processes (or [max_crashes] when forced higher) crossed
   with a canonical deterministic schedule family. *)
let e7_sweep ~name ~make ~ordering ~inputs ~k ?max_crashes ?(jobs = 1) () =
  let r = Adversary.agreement_crash_sweep ~make ~ordering ~inputs ~k ?max_crashes ~jobs () in
  Format.printf "| %-34s | %a@." name Adversary.pp_sweep_report r;
  List.iteri
    (fun i s -> if i < 3 then Format.printf "    ! %s@." s)
    r.Adversary.sw_violations;
  let extra = List.length r.Adversary.sw_violations - 3 in
  if extra > 0 then Format.printf "    ! ... and %d more@." extra

let e7 ?(jobs = 1) () =
  section
    "E7 (adversary): the SL game on the crash-extended tree (<= 1 crash),\n\
     exhaustive wait-freedom bounds, and lock-freedom lasso search";
  Format.printf "| %-34s | %-22s | %-25s | %s@." "construction" "SL + crashes" "wait-freedom"
    "lock-freedom";
  let module Row_max = E7_row (Spec.Max_register) in
  Row_max.run ~name:"Thm 1: max register <- F&A" ~make:Executors.faa_max_register
    ~workload:
      [|
        [ Spec.Max_register.WriteMax 1; Spec.Max_register.ReadMax ];
        [ Spec.Max_register.WriteMax 2 ];
        [ Spec.Max_register.ReadMax ];
      |]
    ~jobs ();
  let module Row_counter = E7_row (Spec.Counter) in
  Row_counter.run ~name:"Thm 3: counter <- atomic snapshot" ~make:Executors.simple_counter_atomic_snap
    ~workload:
      [| [ Spec.Counter.Add 1 ]; [ Spec.Counter.Add 2 ]; [ Spec.Counter.Read; Spec.Counter.Read ] |]
    ~jobs ();
  let module Row_ts = E7_row (Spec.Test_and_set) in
  Row_ts.run ~name:"Thm 5: readable T&S <- T&S" ~make:Executors.readable_ts
    ~workload:
      [|
        [ Spec.Test_and_set.TestAndSet ];
        [ Spec.Test_and_set.TestAndSet ];
        [ Spec.Test_and_set.Read; Spec.Test_and_set.Read ];
      |]
    ~jobs ();
  let module Row_fi = E7_row (Spec.Fetch_and_inc) in
  Row_fi.run ~name:"Thm 9: fetch&inc <- T&S" ~make:Executors.ts_fetch_inc
    ~workload:
      [|
        [ Spec.Fetch_and_inc.FetchInc ];
        [ Spec.Fetch_and_inc.FetchInc ];
        [ Spec.Fetch_and_inc.Read ];
      |]
    ~jobs ();
  let module Row_set = E7_row (Spec.Set_obj) in
  Row_set.run ~name:"Thm 10: set <- T&S (Alg 2)" ~make:Executors.ts_set_atomic_fi
    ~workload:[| [ Spec.Set_obj.Put 1 ]; [ Spec.Set_obj.Take ] |]
    ~jobs ();
  let module Row_reg = E7_row (Spec.Register) in
  Row_reg.run ~name:"MWMR register (E2 refutation)" ~make:Executors.mwmr_register
    ~workload:
      [|
        [ Spec.Register.Write 1 ];
        [ Spec.Register.Write 2 ];
        [ Spec.Register.Read; Spec.Register.Read ];
      |]
    ~max_nodes:2_000_000 ~jobs ();
  let module Row_q = E7_row (Spec.Queue_spec) in
  Row_q.run ~name:"HW queue (E2 refutation)" ~make:Executors.hw_queue
    ~workload:[| [ Spec.Queue_spec.Enq 1 ]; [ Spec.Queue_spec.Deq ]; [ Spec.Queue_spec.Deq ] |]
    ~max_nodes:400_000 ~max_depth:18 ~wf_max_nodes:400_000 ~jobs ();
  Format.printf
    "(expected: every crash-extended verdict agrees with the crash-free one;\n\
     wait-free constructions get exhaustive bounds; the HW queue's spinning\n\
     dequeue yields a certified livelock lasso and a truncated walk)@.";
  hr ();
  Format.printf
    "E7b: Algorithm B under every <=(k-1)-crash plan x deterministic schedules@.";
  hr ();
  let i3 = [| 100; 200; 300 |] and i5 = [| 1; 2; 3; 4; 5 |] in
  e7_sweep ~name:"queue (atomic), k=1, no crashes" ~make:K_ordering.atomic_queue
    ~ordering:K_ordering.queue_witness ~inputs:i3 ~k:1 ~jobs ();
  e7_sweep ~name:"queue (atomic), forced 1 crash" ~make:K_ordering.atomic_queue
    ~ordering:K_ordering.queue_witness ~inputs:i3 ~k:1 ~max_crashes:1 ~jobs ();
  e7_sweep ~name:"stack (atomic), forced 1 crash" ~make:K_ordering.atomic_stack
    ~ordering:K_ordering.stack_witness ~inputs:i3 ~k:1 ~max_crashes:1 ~jobs ();
  e7_sweep ~name:"2-ooo queue (n=5), <=1 crash" ~make:(K_ordering.atomic_ooo_queue ~k:2)
    ~ordering:(K_ordering.ooo_queue_witness ~k:2)
    ~inputs:i5 ~k:2 ~jobs ();
  e7_sweep ~name:"HW queue, forced 1 crash" ~make:(K_ordering.hw_queue ~capacity:3)
    ~ordering:K_ordering.queue_witness ~inputs:i3 ~k:1 ~max_crashes:1 ~jobs ();
  Format.printf
    "(expected: zero violations for the atomic objects even with one forced\n\
     crash — Lemma 12 is crash-tolerant; the HW queue rows may violate)@."

(* The canonical batch for `slin serve --batch` smoke runs: a spread of
   registry objects plus deliberate duplicates (coalescing), one
   already-answered repeat (memo across batches), a fuzz row and a
   coverage row.  Deadlines are generous — CI shares cores with the
   whole matrix, and a slow runner must not turn a done row into a
   deadline row and break the deterministic baseline.  [quick] trims
   node budgets for smoke tests. *)
let serve_jobs ?(quick = false) () =
  let nodes = if quick then 60_000 else 400_000 in
  let line kind id obj extra =
    Obs_json.to_string
      (Obs_json.Assoc
         ([
            ("id", Obs_json.String id);
            ("kind", Obs_json.String kind);
            ("object", Obs_json.String obj);
            ("max_nodes", Obs_json.Int nodes);
            ("deadline_ms", Obs_json.Int 600_000);
          ]
         @ extra))
  in
  [
    line "check" "check-faa-max" "faa-max" [];
    line "check" "check-counter" "counter" [];
    line "check" "check-hw-queue" "hw-queue" [];
    line "check" "check-hw-queue-dup" "hw-queue" [];
    (* coalesces *)
    line "check" "check-set-empty-race" "set-empty-race" [];
    line "fuzz" "fuzz-hw-queue" "hw-queue"
      [ ("seed", Obs_json.Int 1); ("runs", Obs_json.Int (if quick then 100 else 400)) ];
    line "coverage" "coverage-counter" "counter" [];
    line "check" "check-faa-max-dup" "faa-max" [];
    (* coalesces *)
    line "check" "check-unknown" "no-such-object" [];
    (* rejected *)
  ]
