(* Tests for the multicore checker engine (incremental replay, anchored
   cross-checks, column-parallel solving): the determinism contract —
   verdict, witness and every count identical across [jobs] and
   [checkpoint_stride] — plus the heartbeat cadence, the incremental
   node evaluation itself, the exception safety of
   [Steal_pool.parallel_for], the crash game's stride equivalence and
   fuzz campaigns' jobs equivalence. *)

(* [effective_workers] caps [jobs] at the hardware parallelism, so on a
   single-core CI runner every jobs>1 case would silently collapse to
   the sequential engine and test nothing.  Lifting the cap via the env
   override forces real multi-domain runs everywhere. *)
let () = Unix.putenv "SLIN_DOMAIN_CAP" "8"

(* ---------------- engine equivalence over the registry ---------------- *)

(* The deterministic slice of a run: the rendered verdict (so witness
   schedules and node payloads are compared too) and every stats field
   except elapsed time. *)
let run_fingerprint name ~jobs ~checkpoint_stride ~max_nodes =
  match Registry.find name with
  | None -> Alcotest.failf "unknown registry object %s" name
  | Some (Registry.Checkable c) ->
      let (module S) = c.spec in
      let module L = Lincheck.Make (S) in
      let prog = Harness.program ~make:c.make ~workload:c.workload in
      let v, s =
        L.check_strong_stats ~max_nodes ?max_depth:c.default_depth ~jobs ~checkpoint_stride
          prog
      in
      Format.asprintf "%a | nodes=%d hits=%d frontier=%d cand=%d killed=%d dead=%d vfail=%d"
        L.pp_verdict v s.Lincheck.nodes s.Lincheck.cache_hits s.Lincheck.max_frontier_depth
        s.Lincheck.candidates_generated s.Lincheck.candidates_killed s.Lincheck.dead_ends
        s.Lincheck.validate_failures

(* jobs x checkpoint-stride, all against the sequential run. *)
let engine_equivalent ?(max_nodes = 200_000) name () =
  let base = run_fingerprint name ~jobs:1 ~checkpoint_stride:16 ~max_nodes in
  List.iter
    (fun jobs ->
      List.iter
        (fun stride ->
          let fp = run_fingerprint name ~jobs ~checkpoint_stride:stride ~max_nodes in
          Alcotest.(check string)
            (Printf.sprintf "%s at jobs=%d stride=%d" name jobs stride)
            base fp)
        [ 1; 16 ])
    [ 1; 2; 4 ]

(* Objects covering every verdict constructor: SL (faa-max, counter,
   readable-ts, set), NSL with witness (set-empty-race, hw-queue),
   NOT-LIN (tournament-ts).  mwmr-register under a deliberately small
   budget exercises Out_of_budget — in the parallel engine that is the
   sequential-fallback path, which must reproduce the jobs=1 run
   bit-for-bit. *)
let equivalence_objects =
  [
    ("faa-max", None);
    ("counter", None);
    ("readable-ts", None);
    ("fetch-inc", None);
    ("set", None);
    ("tournament-ts", None);
    ("set-empty-race", None);
    ("hw-queue", None);
    ("mwmr-register", Some 50_000);
  ]

(* ---------------- partial-order reduction ----------------------------- *)

(* The [--reduce] contract: the verdict (witness included) is identical
   to the unreduced run's; the reduced exploration is deterministic —
   the same node/prune counts at every [jobs]; and on the refuted E2
   baselines the memo actually bites (>= 5x fewer nodes on hw-queue —
   the ratio the bench rows gate).  [reduce_check] re-explores every
   memo hit and compares: it must agree everywhere and reproduce the
   unreduced node count exactly (every node is visited, just also
   cross-checked). *)
(* [pp_verdict] embeds the node count ("; 92839 nodes"), which is
   exactly what reduction changes — blank the token before any "nodes"
   so reduced and unreduced verdicts compare on verdict kind + witness
   schedule alone. *)
let strip_node_counts s =
  let rec go = function
    | _ :: (b :: _ as rest) when String.length b >= 5 && String.sub b 0 5 = "nodes" ->
        "N" :: go rest
    | x :: rest -> x :: go rest
    | [] -> []
  in
  String.concat " " (go (String.split_on_char ' ' s))

let reduce_equivalent ?(min_ratio = 5) ?(max_nodes = 500_000) name () =
  match Registry.find name with
  | None -> Alcotest.failf "unknown registry object %s" name
  | Some (Registry.Checkable c) ->
      let (module S) = c.spec in
      let module L = Lincheck.Make (S) in
      let prog = Harness.program ~make:c.make ~workload:c.workload in
      let run ~jobs ~reduce ~reduce_check =
        let v, s =
          L.check_strong_stats ~max_nodes ?max_depth:c.default_depth ~jobs ~reduce
            ~reduce_check prog
        in
        (Format.asprintf "%a" L.pp_verdict v, s.Lincheck.nodes)
      in
      let base_v, base_n = run ~jobs:1 ~reduce:false ~reduce_check:false in
      let red_v, red_n = run ~jobs:1 ~reduce:true ~reduce_check:false in
      Alcotest.(check string) (name ^ ": reduced verdict identical")
        (strip_node_counts base_v) (strip_node_counts red_v);
      Alcotest.(check bool)
        (Printf.sprintf "%s: reduction >= %dx (%d vs %d nodes)" name min_ratio base_n red_n)
        true
        (red_n * min_ratio <= base_n);
      List.iter
        (fun jobs ->
          let v, n = run ~jobs ~reduce:true ~reduce_check:false in
          Alcotest.(check string)
            (Printf.sprintf "%s reduced at jobs=%d: verdict" name jobs)
            red_v v;
          Alcotest.(check int) (Printf.sprintf "%s reduced at jobs=%d: nodes" name jobs) red_n n)
        [ 1; 4 ]

let test_reduce_check_cross_validates () =
  match Registry.find "set-empty-race" with
  | None -> Alcotest.fail "set-empty-race not registered"
  | Some (Registry.Checkable c) ->
      let (module S) = c.spec in
      let module L = Lincheck.Make (S) in
      let prog = Harness.program ~make:c.make ~workload:c.workload in
      let run ~reduce ~reduce_check =
        let v, s =
          L.check_strong_stats ~max_nodes:500_000 ?max_depth:c.default_depth ~reduce
            ~reduce_check prog
        in
        (Format.asprintf "%a" L.pp_verdict v, s.Lincheck.nodes)
      in
      let base_v, base_n = run ~reduce:false ~reduce_check:false in
      (* reduce_check implies reduce; it raises on any memo/subtree
         disagreement, so merely completing is the cross-validation *)
      let chk_v, chk_n = run ~reduce:false ~reduce_check:true in
      Alcotest.(check string) "reduce_check verdict identical" base_v chk_v;
      Alcotest.(check int) "reduce_check re-explores every node" base_n chk_n;
      let red_v, _ = run ~reduce:true ~reduce_check:false in
      Alcotest.(check string) "reduced verdict identical" (strip_node_counts base_v)
        (strip_node_counts red_v)

(* ---------------- heartbeat cadence ----------------------------------- *)

(* With the time cadence disabled ([progress_every_ms:0]), [on_progress]
   fires exactly at every [progress_every]-th fresh node: floor(nodes /
   every) times in a complete run, and never for node 0.  The parallel
   engine aggregates node counts across workers and emits from worker 0,
   so jobs=2 beats too (cadence is timing-dependent there — just
   monotone node totals, not an exact count). *)
let test_heartbeat_cadence () =
  match Registry.find "counter" with
  | None -> Alcotest.fail "counter not registered"
  | Some (Registry.Checkable c) ->
      let (module S) = c.spec in
      let module L = Lincheck.Make (S) in
      let prog = Harness.program ~make:c.make ~workload:c.workload in
      let every = 50 in
      let beats = ref 0 in
      let _, s =
        L.check_strong_stats
          ~on_progress:(fun ~nodes:_ ~elapsed_ns:_ -> incr beats)
          ~progress_every:every ~progress_every_ms:0 prog
      in
      Alcotest.(check int) "beats = floor(nodes/every)" (s.Lincheck.nodes / every) !beats;
      Alcotest.(check bool) "some beats fired" true (!beats > 0);
      let beats_par = ref 0 in
      let last = ref 0 in
      let monotone = ref true in
      let _, s2 =
        L.check_strong_stats
          ~on_progress:(fun ~nodes ~elapsed_ns:_ ->
            incr beats_par;
            if nodes < !last then monotone := false;
            last := nodes)
          ~progress_every:1 ~progress_every_ms:0 ~jobs:2 prog
      in
      Alcotest.(check int) "same nodes at jobs=2" s.Lincheck.nodes s2.Lincheck.nodes;
      Alcotest.(check bool) "parallel engine beats" true (!beats_par > 0);
      Alcotest.(check bool) "aggregated node totals are monotone" true !monotone;
      Alcotest.(check bool) "beats never overshoot the node total" true
        (!last <= s2.Lincheck.nodes)

(* Parallel beats read the shared node total, which every column engine
   bumps per fresh node: with only the node cadence on, consecutive
   beats on a long refutation must show progress, never a frozen
   total. *)
let test_heartbeat_parallel_progress () =
  match Registry.find "agm-stack" with
  | None -> Alcotest.fail "agm-stack not registered"
  | Some (Registry.Checkable c) ->
      let (module S) = c.spec in
      let module L = Lincheck.Make (S) in
      let prog = Harness.program ~make:c.make ~workload:c.workload in
      let beats = ref [] in
      let _ =
        L.check_strong_stats ?max_depth:c.default_depth
          ~on_progress:(fun ~nodes ~elapsed_ns:_ -> beats := nodes :: !beats)
          ~progress_every:10_000 ~progress_every_ms:0 ~jobs:2 prog
      in
      let rec strictly_increasing = function
        | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
        | _ -> true
      in
      let beats = List.rev !beats in
      Alcotest.(check bool) "at least two beats" true (List.length beats >= 2);
      Alcotest.(check bool)
        (Printf.sprintf "beat totals strictly increase (%s)"
           (String.concat ", " (List.map string_of_int beats)))
        true (strictly_increasing beats)

(* The wall-clock cadence: with the node cadence effectively off (a huge
   [progress_every]) and a 1 ms time cadence, a run that expands many
   nodes still beats — cache-hit streaks and long replays can no longer
   go silent. *)
let test_heartbeat_time_cadence () =
  match Registry.find "counter" with
  | None -> Alcotest.fail "counter not registered"
  | Some (Registry.Checkable c) ->
      let (module S) = c.spec in
      let module L = Lincheck.Make (S) in
      let prog = Harness.program ~make:c.make ~workload:c.workload in
      let beats = ref 0 in
      let _, s =
        L.check_strong_stats
          ~on_progress:(fun ~nodes:_ ~elapsed_ns:_ -> incr beats)
          ~progress_every:max_int ~progress_every_ms:1 prog
      in
      Alcotest.(check bool) "run explored enough to take >1ms" true
        (s.Lincheck.elapsed_ns > 1_000_000);
      Alcotest.(check bool) "time cadence beats" true (!beats > 0)

(* ---------------- parallel_for exception safety ----------------------- *)

exception Boom of int

(* One randomly chosen index raises, at 1, 2 and 8 workers: the loop
   must terminate, re-raise exactly that exception, and run no index
   twice.  Every other index sleeps briefly before it counts itself
   finished, so a worker still running when [parallel_for] hands back
   control (an unjoined domain) shows up as started-but-unfinished work.
   Index 0 always runs, on worker 0.  With one worker it is the plain
   sequential loop, so exactly the indices up to the raising one ran. *)
let prop_parallel_for_raise =
  QCheck.Test.make ~name:"parallel_for: a raising index is re-raised after every join"
    ~count:60
    QCheck.(triple (oneofl [ 1; 2; 8 ]) (int_range 1 48) (int_bound 1_000_000))
    (fun (workers, n, r) ->
      let bad = r mod n in
      let runs = Array.init n (fun _ -> Atomic.make 0) in
      let finished = Atomic.make 0 in
      let worker_of_0 = Atomic.make (-1) in
      match
        Steal_pool.parallel_for ~workers ~n (fun ~worker i ->
            Atomic.incr runs.(i);
            if i = 0 then Atomic.set worker_of_0 worker;
            if i = bad then raise (Boom i);
            Unix.sleepf 0.0002;
            Atomic.incr finished)
      with
      | () -> false
      | exception Boom i ->
          let ran i = Atomic.get runs.(i) in
          let started = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 runs in
          i = bad
          && Array.for_all (fun a -> Atomic.get a <= 1) runs
          && ran bad = 1
          && Atomic.get worker_of_0 = 0
          && Atomic.get finished = started - 1
          && (workers > 1
             || List.for_all (fun j -> ran j = if j <= bad then 1 else 0) (List.init n Fun.id)))

(* ---------------- incremental node evaluation ------------------------- *)

(* Chain [extend_info] down a long schedule, anchoring every node
   against a full replay: any divergence raises. *)
let test_extend_info_chain () =
  match Registry.find "hw-queue" with
  | None -> Alcotest.fail "hw-queue not registered"
  | Some (Registry.Checkable c) ->
      let (module S) = c.spec in
      let module L = Lincheck.Make (S) in
      let prog = Harness.program ~make:c.make ~workload:c.workload in
      let w = Sim.run_schedule prog [] in
      let info = ref (L.Internal.info_of_world w) in
      L.Internal.cross_check !info w;
      let steps = ref 0 in
      let continue = ref true in
      while !continue && !steps < 60 do
        match Sim.enabled w with
        | [] -> continue := false
        | ps ->
            (* rotate through the enabled set so the walk interleaves *)
            Sim.step w (List.nth ps (!steps mod List.length ps));
            info := L.Internal.extend_info !info w;
            L.Internal.cross_check !info w;
            incr steps
      done;
      Alcotest.(check bool) "walked some steps" true (!steps > 0)

(* ---------------- crash game and fuzz campaigns ------------------------ *)

(* The crash game is the engine's own game with crash actions added; its
   verdict must be identical for every anchor stride. *)
let test_crash_game_stride () =
  match Registry.find "faa-max" with
  | None -> Alcotest.fail "faa-max not registered"
  | Some (Registry.Checkable c) ->
      let (module S) = c.spec in
      let module L = Lincheck.Make (S) in
      let prog = Harness.program ~make:c.make ~workload:c.workload in
      let show stride =
        Format.asprintf "%a" L.pp_verdict
          (fst
             (L.check_strong_stats ~max_nodes:2_000_000 ~checkpoint_stride:stride ~crashes:1
                prog))
      in
      let base = show 16 in
      List.iter
        (fun stride ->
          Alcotest.(check string) (Printf.sprintf "stride %d" stride) base (show stride))
        [ 1; 4 ]

(* Fuzz campaigns: every report field except elapsed time is identical
   for every [jobs] — including on a campaign that finds a violation,
   where "first" must mean index-minimal, not first in wall time. *)
let fuzz_jobs_equivalent name runs () =
  match Registry.find name with
  | None -> Alcotest.failf "unknown registry object %s" name
  | Some (Registry.Checkable c) ->
      let (module S) = c.spec in
      let module A = Adversary.Make (S) in
      let prog = Harness.program ~make:c.make ~workload:c.workload in
      let show jobs =
        let r = A.fuzz ~seed:1 ~runs ~jobs prog in
        let viol =
          match r.A.fz_violation with
          | None -> "none"
          | Some v ->
              Printf.sprintf "seed=%d crash=%s sched=%d shrunk=%d" v.A.v_seed
                (String.concat ","
                   (List.map (fun (p, at) -> Printf.sprintf "%d@%d" p at) v.A.v_crash_after))
                (List.length v.A.v_schedule) (Witness.size v.A.v_shape)
        in
        Printf.sprintf "runs=%d crashed=%d steps=%d viol=%s" r.A.fz_runs r.A.fz_crashed_runs
          r.A.fz_total_steps viol
      in
      let base = show 1 in
      List.iter
        (fun jobs ->
          Alcotest.(check string) (Printf.sprintf "%s fuzz at jobs=%d" name jobs) base
            (show jobs))
        [ 2; 3 ]

(* The agreement crash sweep: the whole report record is deterministic,
   so plain equality across [jobs]. *)
let test_sweep_jobs_equivalent () =
  let sweep jobs =
    Adversary.agreement_crash_sweep ~make:K_ordering.atomic_queue
      ~ordering:K_ordering.queue_witness ~inputs:[| 100; 200; 300 |] ~k:1 ~max_crashes:1 ~jobs
      ()
  in
  let base = sweep 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "sweep report identical at jobs=%d" jobs)
        true
        (sweep jobs = base))
    [ 2; 4 ]

(* ---------------- suite ----------------------------------------------- *)

let suite =
  List.map
    (fun (name, max_nodes) ->
      Alcotest.test_case
        (Printf.sprintf "equivalence: %s" name)
        `Slow
        (engine_equivalent ?max_nodes name))
    equivalence_objects
  @ [
      Alcotest.test_case "reduce: hw-queue >= 5x, jobs equivalence" `Slow
        (reduce_equivalent "hw-queue");
      Alcotest.test_case "reduce: set-empty-race equivalence" `Slow
        (reduce_equivalent ~min_ratio:1 "set-empty-race");
      Alcotest.test_case "reduce: faa-max (SL verdict) equivalence" `Slow
        (reduce_equivalent ~min_ratio:1 "faa-max");
      Alcotest.test_case "reduce_check cross-validation" `Slow
        test_reduce_check_cross_validates;
      Alcotest.test_case "heartbeat cadence" `Quick test_heartbeat_cadence;
      Alcotest.test_case "heartbeat: parallel totals progress" `Quick
        test_heartbeat_parallel_progress;
      Alcotest.test_case "heartbeat time cadence" `Quick test_heartbeat_time_cadence;
      QCheck_alcotest.to_alcotest prop_parallel_for_raise;
      Alcotest.test_case "extend_info anchored walk" `Quick test_extend_info_chain;
      Alcotest.test_case "crash game: stride equivalence" `Quick test_crash_game_stride;
      Alcotest.test_case "fuzz: jobs equivalence (clean)" `Slow
        (fuzz_jobs_equivalent "faa-max" 60);
      Alcotest.test_case "fuzz: jobs equivalence (violation)" `Slow
        (fuzz_jobs_equivalent "hw-queue" 120);
      Alcotest.test_case "sweep: jobs equivalence" `Slow test_sweep_jobs_equivalent;
    ]

let () = Alcotest.run "engine" [ ("engine", suite) ]
