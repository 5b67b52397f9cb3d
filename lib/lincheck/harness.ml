(* Workload harness: turn an object implementation plus a per-process
   operation list into a [Sim.program] whose trace records exactly the
   high-level operations — the shape both checkers consume.

   [make] is called once per world (i.e. once per explored schedule); it
   receives the world's runtime, creates a fresh instance of the
   implementation, and returns the operation executor shared by all
   processes.  Per-process local state inside the implementation is keyed
   by [R.self ()]. *)

let program ~(make : (module Runtime_intf.S) -> 'op -> 'resp) ~(workload : 'op list array) :
    ('op, 'resp) Sim.program =
  {
    Sim.procs = Array.length workload;
    boot =
      (fun w ->
        let exec = make (Sim.runtime w) in
        Array.iteri
          (fun p ops ->
            Sim.spawn w ~proc:p (fun () ->
                List.iter (fun op -> ignore (Sim.operation w ~op ~resp:Fun.id (fun () -> exec op))) ops))
          workload);
  }

(* Run a workload under [runs] random schedules and check every resulting
   trace for linearizability with [check]; returns the first offending
   seed, if any.

   Partial-order reduction is applied unconditionally here: linearizability
   is a property of the history alone, and commutation-equivalent traces
   have identical histories, so one check answers the whole class.  Only
   CLEAN classes are cached — a violating trace is never skipped on the
   strength of a fingerprint, and the first violating seed is unchanged
   (an earlier equivalent trace would itself have been violating).  This
   phase is randomized testing, not exhaustive proof, which is why the
   reduction needs no opt-in: a fingerprint collision can at worst mute
   one of [runs] random probes. *)
let find_non_linearizable ~check ~runs ?(crash_prob = 0.0) prog =
  let clean : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let rec go seed =
    if seed > runs then None
    else
      let crash_after =
        if crash_prob > 0.0 && seed mod 5 = 0 then [ (seed mod prog.Sim.procs, seed mod 17) ]
        else []
      in
      let w = Sim.run_random ~seed ~crash_after prog in
      let tr = Sim.trace w in
      Sim.dispose w;
      let fp = Reduct.fp_of_trace tr in
      if Hashtbl.mem clean fp then go (seed + 1)
      else if check tr then begin
        Hashtbl.add clean fp ();
        go (seed + 1)
      end
      else Some seed
  in
  go 1
