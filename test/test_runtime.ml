(* Tests for the simulator, solo and parallel runtimes.

   The op/resp types for trace events are strings throughout: these tests
   exercise the machinery, not a particular object. *)

let ev = Alcotest.of_pp (Trace.pp_event Format.pp_print_string Format.pp_print_string)

(* A two-process read-then-write race on one register: the classic lost
   update.  Each process reads the register, then writes read+1. *)
let race_program () : (string, string) Sim.program =
  {
    procs = 2;
    boot =
      (fun w ->
        let module R = (val Sim.runtime w) in
        let r = R.obj ~name:"r" 0 in
        for p = 0 to 1 do
          Sim.spawn w ~proc:p (fun () ->
              ignore
                (Sim.operation w ~op:"inc" ~resp:string_of_int (fun () ->
                     let v = R.read r in
                     R.access r (fun _ -> (v + 1, v + 1)))))
        done);
  }

(* Final register value for a given schedule of the race program. *)
let race_result schedule =
  let w = Sim.run_schedule (race_program ()) schedule in
  let returns =
    List.filter_map
      (function Trace.Return { resp; _ } -> Some resp | _ -> None)
      (Sim.trace w)
  in
  returns

let test_determinism () =
  let s = [ 0; 1; 0; 1; 0; 1 ] in
  let t1 = Sim.trace (Sim.run_schedule (race_program ()) s) in
  let t2 = Sim.trace (Sim.run_schedule (race_program ()) s) in
  Alcotest.(check (list ev)) "same schedule, same trace" t1 t2

let test_sequential_schedule () =
  (* p0 runs to completion, then p1: no lost update. *)
  Alcotest.(check (list string)) "sequential" [ "1"; "2" ] (race_result [ 0; 0; 0; 1; 1; 1 ])

let test_racy_schedule () =
  (* Both read before either writes: both return 1 (lost update). *)
  Alcotest.(check (list string)) "interleaved" [ "1"; "1" ] (race_result [ 0; 1; 0; 1; 0; 1 ])

let test_step_counts () =
  let w = Sim.run_to_completion (race_program ()) in
  (* Each process: 1 boot resume + 2 accesses = 3 steps. *)
  Alcotest.(check int) "p0 steps" 3 (Sim.steps_of w 0);
  Alcotest.(check int) "p1 steps" 3 (Sim.steps_of w 1);
  Alcotest.(check bool) "p0 finished" true (Sim.finished w 0);
  Alcotest.(check (list int)) "none enabled" [] (Sim.enabled w)

let test_trace_shape () =
  let w = Sim.run_schedule (race_program ()) [ 0; 0; 0 ] in
  match Sim.trace w with
  | [ Trace.Invoke { proc = 0; op = "inc" }; Step _; Step _; Return { proc = 0; resp = "1" } ]
    ->
      ()
  | t ->
      Alcotest.failf "unexpected trace:@.%a"
        (Trace.pp Format.pp_print_string Format.pp_print_string)
        t

let test_invoke_before_first_step () =
  (* The first resume records the invocation and suspends at the first
     access without applying it. *)
  let w = Sim.run_schedule (race_program ()) [ 0 ] in
  (match Sim.trace w with
  | [ Trace.Invoke { proc = 0; _ } ] -> ()
  | t ->
      Alcotest.failf "unexpected trace:@.%a"
        (Trace.pp Format.pp_print_string Format.pp_print_string)
        t);
  Alcotest.(check (list int)) "both still enabled" [ 0; 1 ] (Sim.enabled w)

let test_crash () =
  let prog = race_program () in
  let w = Sim.run_schedule prog [ 0; 1 ] in
  Sim.crash w 0;
  Alcotest.(check (list int)) "only p1 left" [ 1 ] (Sim.enabled w);
  Alcotest.check_raises "stepping crashed proc" (Sim.Invalid_schedule "p0 crashed") (fun () ->
      Sim.step w 0);
  (* p1 can still finish; p0's operation stays pending. *)
  while Sim.enabled w <> [] do
    Sim.step w 1
  done;
  let returns =
    List.filter_map (function Trace.Return { proc; _ } -> Some proc | _ -> None) (Sim.trace w)
  in
  Alcotest.(check (list int)) "only p1 returned" [ 1 ] returns

let test_invalid_schedule () =
  let w = Sim.run_to_completion (race_program ()) in
  Alcotest.check_raises "finished" (Sim.Invalid_schedule "p0 already finished") (fun () ->
      Sim.step w 0);
  Alcotest.check_raises "out of range" (Sim.Invalid_schedule "p7 out of range") (fun () ->
      Sim.step w 7)

let test_spawn_errors () =
  let w = Sim.create ~n:1 in
  Sim.spawn w ~proc:0 (fun () -> ());
  Alcotest.check_raises "double spawn" (Invalid_argument "Sim.spawn: process already has a body")
    (fun () -> Sim.spawn w ~proc:0 (fun () -> ()));
  Alcotest.check_raises "out of range" (Invalid_argument "Sim.spawn: process out of range")
    (fun () -> Sim.spawn w ~proc:3 (fun () -> ()))

let test_run_random_deterministic () =
  let t1 = Sim.trace (Sim.run_random ~seed:42 (race_program ())) in
  let t2 = Sim.trace (Sim.run_random ~seed:42 (race_program ())) in
  Alcotest.(check (list ev)) "same seed, same trace" t1 t2

let test_run_random_crash () =
  (* Crash p0 immediately: only p1's operation completes. *)
  let w = Sim.run_random ~seed:1 ~crash_after:[ (0, 0) ] (race_program ()) in
  let returns =
    List.filter_map (function Trace.Return { proc; _ } -> Some proc | _ -> None) (Sim.trace w)
  in
  Alcotest.(check (list int)) "only p1 returned" [ 1 ] returns

let test_crash_idempotent () =
  (* A second crash of the same process, or a crash of a finished one,
     is a no-op — not an error, not a second fault. *)
  let w = Sim.run_schedule (race_program ()) [ 0 ] in
  Sim.crash w 0;
  Sim.crash w 0;
  Alcotest.(check (list int)) "p1 still enabled" [ 1 ] (Sim.enabled w);
  while Sim.enabled w <> [] do
    Sim.step w 1
  done;
  Sim.crash w 1;
  Alcotest.(check bool) "p1 stays finished, not crashed" true (Sim.finished w 1)

let test_crash_after_semantics () =
  (* [(p, at)] crashes p at the top of the scheduling loop once the
     TOTAL step count has reached [at] — before step at+1 is chosen.
     [(p, 0)] therefore means p never takes a step.  Pinned here with a
     fully deterministic plan: p0 can never run, and p1 crashes right
     after the first step, whatever the seed picks. *)
  let w, sched =
    Sim.run_random_full ~seed:99 ~crash_after:[ (0, 0); (1, 1) ] (race_program ())
  in
  Alcotest.(check (list int)) "exactly one step, by p1" [ 1 ] sched;
  (match Sim.trace w with
  | [ Trace.Invoke { proc = 1; _ } ] -> ()
  | t ->
      Alcotest.failf "unexpected trace:@.%a"
        (Trace.pp Format.pp_print_string Format.pp_print_string)
        t);
  Alcotest.(check (list int)) "nobody left enabled" [] (Sim.enabled w)

let test_run_random_full_consistency () =
  (* run_random is fst of run_random_full (same RNG stream), and the
     returned schedule replays the identical trace on its own — crashes
     only remove future steps, so no crash replay support is needed. *)
  List.iter
    (fun crash_after ->
      let w, sched = Sim.run_random_full ~seed:5 ~crash_after (race_program ()) in
      let t = Sim.trace w in
      Alcotest.(check (list ev))
        "run_random agrees" t
        (Sim.trace (Sim.run_random ~seed:5 ~crash_after (race_program ())));
      Alcotest.(check (list ev))
        "schedule alone replays the trace" t
        (Sim.trace (Sim.run_schedule (race_program ()) sched)))
    [ []; [ (0, 2) ]; [ (1, 0) ]; [ (0, 1); (1, 3) ] ]

let test_solo_runtime () =
  let module R = (val Solo_runtime.make ~self:3 ~n:8 ()) in
  let o = R.obj 10 in
  Alcotest.(check int) "read" 10 (R.read o);
  Alcotest.(check int) "rmw result" 10 (R.access o (fun s -> (s + 1, s)));
  Alcotest.(check int) "state updated" 11 (R.read o);
  Alcotest.(check int) "self" 3 (R.self ());
  Alcotest.(check int) "n" 8 (R.n_procs ())

let test_par_runtime () =
  let n = 4 and per = 1000 in
  let module R = (val Par_runtime.make ~n ()) in
  let counter = R.obj 0 in
  let selves =
    Par_runtime.run ~n (fun _ ->
        for _ = 1 to per do
          ignore (R.access counter (fun s -> (s + 1, s)))
        done;
        R.self ())
  in
  Alcotest.(check int) "no lost increments" (n * per) (R.read counter);
  Alcotest.(check (list int)) "distinct selves" [ 0; 1; 2; 3 ]
    (List.sort compare (Array.to_list selves))

(* Property: for every schedule of the race program that completes both
   operations, the final value is 1 or 2, and it is 2 iff no lost update
   (the two operations do not overlap at their access points). *)
let prop_race_outcomes =
  let gen = QCheck.Gen.(list_size (int_bound 20) (int_bound 1)) in
  let arb = QCheck.make ~print:(fun l -> String.concat "" (List.map string_of_int l)) gen in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"race outcomes are 1 or 2" ~count:300 arb (fun choices ->
         (* Interpret the random bits as a schedule, skipping disabled procs. *)
         let w = Sim.create ~n:2 in
         (race_program ()).boot w;
         List.iter
           (fun p -> match Sim.enabled w with [] -> () | en -> if List.mem p en then Sim.step w p)
           choices;
         (* Finish any stragglers deterministically. *)
         let rec drain () =
           match Sim.enabled w with
           | [] -> ()
           | p :: _ ->
               Sim.step w p;
               drain ()
         in
         drain ();
         let returns =
           List.filter_map
             (function Trace.Return { resp; _ } -> Some (int_of_string resp) | _ -> None)
             (Sim.trace w)
         in
         List.length returns = 2 && List.for_all (fun v -> v = 1 || v = 2) returns))

(* [dispose] unwinds suspended and crashed fibers; the world keeps its
   trace and no process can step again. *)
let test_dispose () =
  let prog = race_program () in
  let w = Sim.run_schedule prog [ 0; 1; 0 ] in
  Sim.crash w 1;
  let before = Sim.trace w in
  Sim.dispose w;
  Alcotest.(check (list int)) "nothing enabled" [] (Sim.enabled w);
  Alcotest.(check (list ev)) "trace kept" before (Sim.trace w);
  Alcotest.check_raises "disposed proc" (Sim.Invalid_schedule "p0 crashed") (fun () ->
      Sim.step w 0)

let vm_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec find () =
        match input_line ic with
        | exception End_of_file -> None
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmRSS:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Option.some
            else find ()
      in
      let r = find () in
      close_in ic;
      r

(* A dropped continuation keeps its fiber stack until the program
   exits; replaying and disposing worlds must not grow the process. *)
let test_dispose_frees_stacks () =
  let prog = race_program () in
  let cycle () =
    let w = Sim.run_schedule prog [ 0; 1 ] in
    Sim.crash w 0;
    Sim.dispose w
  in
  for _ = 1 to 1_000 do
    cycle ()
  done;
  Gc.full_major ();
  match vm_rss_kb () with
  | None -> Alcotest.skip ()
  | Some before ->
      for _ = 1 to 100_000 do
        cycle ()
      done;
      Gc.full_major ();
      let grown_mb = (Option.get (vm_rss_kb ()) - before) / 1024 in
      if grown_mb >= 64 then Alcotest.failf "VmRSS grew by %d MB over 100k disposed worlds" grown_mb

let suite =
  [
    ("determinism", `Quick, test_determinism);
    ("sequential schedule", `Quick, test_sequential_schedule);
    ("racy schedule", `Quick, test_racy_schedule);
    ("step counts", `Quick, test_step_counts);
    ("trace shape", `Quick, test_trace_shape);
    ("invoke before first step", `Quick, test_invoke_before_first_step);
    ("crash", `Quick, test_crash);
    ("invalid schedule", `Quick, test_invalid_schedule);
    ("spawn errors", `Quick, test_spawn_errors);
    ("run_random deterministic", `Quick, test_run_random_deterministic);
    ("run_random crash", `Quick, test_run_random_crash);
    ("crash idempotent", `Quick, test_crash_idempotent);
    ("crash_after semantics", `Quick, test_crash_after_semantics);
    ("run_random_full consistency", `Quick, test_run_random_full_consistency);
    ("solo runtime", `Quick, test_solo_runtime);
    ("parallel runtime", `Quick, test_par_runtime);
    prop_race_outcomes;
    ("dispose", `Quick, test_dispose);
    ("dispose frees fiber stacks", `Quick, test_dispose_frees_stacks);
  ]

let () = Alcotest.run "runtime" [ ("runtime", suite) ]
