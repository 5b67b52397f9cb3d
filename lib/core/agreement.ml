(* Lemma 12 / Algorithm B: k-set agreement from a lock-free
   strongly-linearizable implementation of a k-ordering object over
   readable base objects.

   Process p_i with input x:
   1. writes x into M[i];
   2. executes its proposal sequence prop_i on the shared instance A,
      writing an incremented counter into T[i] {e before every step} of A
      (the instrumented runtime below inserts that write);
   3. repeats { t1 := collect(T); r := collect(R); t2 := collect(T) }
      until t1 = t2 — then r is a consistent snapshot of A's base
      objects: any process that took a step of A between the two T-reads
      would have bumped its counter first;
   4. locally simulates its decision sequence dec_i on a fresh copy of A
      started from r (a solo extension of the execution so far);
   5. decides M[d(i, responses)].

   Strong linearizability of A is what makes the decisions agree: every
   local solo extension extends a {e common} prefix-closed linearization
   of the shared execution, so the set S_alpha of possible winners is
   fixed once and for all.  With a merely linearizable A the local
   extensions may extend {e incompatible} linearizations and disagree —
   experiment E4 exhibits this with the Herlihy–Wing queue. *)

type outcome = {
  decisions : int option array;  (* per process; None if crashed before deciding *)
  inputs : int array;
}

let distinct_decisions o =
  List.sort_uniq compare (List.filter_map Fun.id (Array.to_list o.decisions))

(* Validity: every decision is some process's input. *)
let valid o = List.for_all (fun d -> Array.exists (( = ) d) o.inputs) (distinct_decisions o)

(* k-agreement: at most k distinct decisions. *)
let agreement ~k o = List.length (distinct_decisions o) <= k

(* Wrap a runtime so that every access is preceded by a write bumping the
   calling process's slot of [t_arr] — but only while that process is in
   its proposal phase ([in_prop]). *)
module Instrumented
    (R : Runtime_intf.S)
    (C : sig
      val t_arr : int R.obj array
      val in_prop : bool array
    end) : Runtime_intf.S = struct
  type 'a obj = 'a R.obj

  let obj = R.obj

  let access ?info o f =
    let me = R.self () in
    if C.in_prop.(me) then R.access ~info:"T-bump" C.t_arr.(me) (fun t -> (t + 1, ()));
    R.access ?info o f

  let read ?info o = access ?info o (fun s -> (s, s))
  let self = R.self
  let n_procs = R.n_procs
end

(* Build the Sim program.  [decisions] is filled in as processes decide.
   The trace records the proposal/decision operations of A. *)
let program ~(make : (module Runtime_intf.S) -> ('op, 'resp) K_ordering.instance)
    ~(ordering : ('op, 'resp) K_ordering.witness) ~(inputs : int array)
    ~(decisions : int option array) : ('op, 'resp) Sim.program =
  let n = Array.length inputs in
  {
    Sim.procs = n;
    boot =
      (fun w ->
        let module R = (val Sim.runtime w) in
        let m_arr = Array.init n (fun i -> R.obj ~name:(Printf.sprintf "M%d" i) None) in
        let t_arr = Array.init n (fun i -> R.obj ~name:(Printf.sprintf "T%d" i) 0) in
        let in_prop = Array.make n false in
        let module RI =
          Instrumented
            (R)
            (struct
              let t_arr = t_arr
              let in_prop = in_prop
            end)
        in
        let (K_ordering.Instance inst) = make (module RI : Runtime_intf.S) in
        for i = 0 to n - 1 do
          Sim.spawn w ~proc:i (fun () ->
              (* Step 2: publish the input. *)
              R.access ~info:"M-write" m_arr.(i) (fun _ -> (Some inputs.(i), ()));
              (* Step 3: run the proposal sequence, instrumented. *)
              in_prop.(i) <- true;
              let prop_resps =
                List.map
                  (fun op -> Sim.operation w ~op ~resp:Fun.id (fun () -> inst.apply op))
                  (ordering.K_ordering.prop ~n i)
              in
              in_prop.(i) <- false;
              (* Steps 4–5: collect until stable. *)
              let collect_t () = Array.map (fun t -> R.read ~info:"T-read" t) t_arr in
              let rec stable_collect () =
                let t1 = collect_t () in
                let r = inst.collect () in
                let t2 = collect_t () in
                if t1 = t2 then r else stable_collect ()
              in
              let r = stable_collect () in
              (* Step 6: local solo simulation of the decision sequence. *)
              let dec_resps = inst.replay r (ordering.K_ordering.dec ~n i) in
              (* Step 7: decide. *)
              let l = ordering.K_ordering.decide ~n i (prop_resps @ dec_resps) in
              match R.read ~info:"M-read" m_arr.(l) with
              | Some v -> decisions.(i) <- Some v
              | None ->
                  (* Unreachable when the witness is correct: d returns a
                     process that completed its proposals, whose M slot is
                     set. *)
                  failwith "Agreement: decided process never published its input")
        done);
  }

(* Run Algorithm B once under a random schedule. *)
let run_random ~make ~ordering ~inputs ~seed ?(crash_after = []) () : outcome =
  let decisions = Array.make (Array.length inputs) None in
  let prog = program ~make ~ordering ~inputs ~decisions in
  Sim.dispose (Sim.run_random ~seed ~crash_after prog);
  { decisions; inputs }

(* Run many random schedules (with optional crash injection) and report
   how many violated validity or k-agreement. *)
type stats = { trials : int; agreement_violations : int; validity_violations : int; max_distinct : int }

let pp_stats fmt s =
  Format.fprintf fmt "trials=%d agreement-violations=%d validity-violations=%d max-distinct=%d"
    s.trials s.agreement_violations s.validity_violations s.max_distinct

let run_many ~make ~ordering ~inputs ~trials ?(crash_prob = 0.0) ~seed () : stats =
  let rng = Random.State.make [| seed |] in
  let n = Array.length inputs in
  let k = ordering.K_ordering.degree ~n in
  let agreement_violations = ref 0 and validity_violations = ref 0 and max_distinct = ref 0 in
  for _ = 1 to trials do
    let crash_after =
      if crash_prob > 0.0 && Random.State.float rng 1.0 < crash_prob then
        [ (Random.State.int rng n, Random.State.int rng 30) ]
      else []
    in
    let o = run_random ~make ~ordering ~inputs ~seed:(Random.State.int rng 1_000_000) ~crash_after () in
    let d = List.length (distinct_decisions o) in
    if d > !max_distinct then max_distinct := d;
    if not (agreement ~k o) then incr agreement_violations;
    if not (valid o) then incr validity_violations
  done;
  { trials; agreement_violations = !agreement_violations; validity_violations = !validity_violations; max_distinct = !max_distinct }
