(* Progress-property measurements (paper §2: wait-freedom, lock-freedom).

   These are empirical: wait-freedom of an implementation shows up as a
   bound on steps-per-operation that is independent of the schedule;
   lock-freedom shows up as completions continuing to happen in every
   run.  [measure] runs a program under many random schedules (and
   optional crash injection) and reports the worst step counts
   observed. *)

type report = {
  runs : int;
  max_steps_per_op : int;  (* worst steps any single operation took *)
  total_completed : int;  (* operations completed across all runs *)
  total_steps : int;  (* base-object steps across all runs *)
}

let pp_report fmt r =
  Format.fprintf fmt "runs=%d max-steps/op=%d completed=%d steps=%d" r.runs r.max_steps_per_op
    r.total_completed r.total_steps

let report_fields r =
  [
    ("runs", Obs_json.Int r.runs);
    ("max_steps_per_op", Obs_json.Int r.max_steps_per_op);
    ("total_completed", Obs_json.Int r.total_completed);
    ("total_steps", Obs_json.Int r.total_steps);
  ]

(* Steps each operation took: walk the trace keeping, per process, the
   number of Step events since its last Invoke. *)
let op_step_counts (t : _ Trace.t) : int list =
  let open_steps : (int, int ref) Hashtbl.t = Hashtbl.create 8 in
  let finished = ref [] in
  List.iter
    (function
      | Trace.Invoke { proc; _ } -> Hashtbl.replace open_steps proc (ref 0)
      | Trace.Step { proc; _ } -> (
          match Hashtbl.find_opt open_steps proc with Some r -> incr r | None -> ())
      | Trace.Return { proc; _ } -> (
          match Hashtbl.find_opt open_steps proc with
          | Some r ->
              finished := !r :: !finished;
              Hashtbl.remove open_steps proc
          | None -> ()))
    t;
  !finished

let measure ?(seed = 0) ?(runs = 100) ?(crash_prob = 0.0) (prog : _ Sim.program) : report =
  let rng = Random.State.make [| seed |] in
  let max_per_op = ref 0 and completed = ref 0 and steps = ref 0 in
  for _ = 1 to runs do
    let run_seed = Random.State.int rng 1_000_000 in
    let crash_after =
      if crash_prob > 0.0 && Random.State.float rng 1.0 < crash_prob then
        [ (Random.State.int rng prog.Sim.procs, Random.State.int rng 20) ]
      else []
    in
    let w = Sim.run_random ~seed:run_seed ~crash_after prog in
    let t = Sim.trace w in
    Sim.dispose w;
    List.iter
      (fun c ->
        incr completed;
        if c > !max_per_op then max_per_op := c)
      (op_step_counts t);
    steps := !steps + Trace.step_count t
  done;
  { runs; max_steps_per_op = !max_per_op; total_completed = !completed; total_steps = !steps }
