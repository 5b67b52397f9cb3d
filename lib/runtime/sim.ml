(* Deterministic effect-based simulator.

   Each process is a fiber.  [access] performs the [Suspend] effect before
   applying its state transition, so one resume = one atomic step; the
   scheduler (the caller of [step]) decides the interleaving.  Within a
   resume, the fiber also runs all its local computation up to the next
   access — local computation is free, exactly as in the paper's model
   where only base-object operations are steps. *)

type _ Effect.t += Suspend : unit Effect.t

exception Invalid_schedule of string

(* Global, opt-in metrics aggregated across every world (the checker
   boots one world per explored schedule, so per-world counts are
   useless for exploration-wide totals).  Gated on [enabled] so the
   default cost per access is one load-and-branch; when enabled the
   counts are still deterministic — they never influence scheduling. *)
module Metrics = struct
  let enabled = ref false

  (* Per-domain shard tables (Domain.DLS): [bump] only ever touches the
     calling domain's own table, so concurrent simulations neither
     contend on a lock nor lose increments — the parallel checker boots
     worlds from several domains at once.  Each shard registers itself
     on first use; [snapshot] merges across shards and [reset] clears
     them, and both must run while no other domain is simulating (the
     engine joins its workers before reporting, so this holds at every
     call site).  [bump] call sites are all gated on [enabled], so the
     unobserved fast path never touches any of this. *)
  let shards_lock = Mutex.create ()

  let shards : (string, int ref) Hashtbl.t list ref = ref []

  let shard_key =
    Domain.DLS.new_key (fun () ->
        let t : (string, int ref) Hashtbl.t = Hashtbl.create 64 in
        Mutex.lock shards_lock;
        shards := t :: !shards;
        Mutex.unlock shards_lock;
        t)

  let bump key =
    let table = Domain.DLS.get shard_key in
    match Hashtbl.find_opt table key with
    | Some r -> incr r
    | None -> Hashtbl.add table key (ref 1)

  let reset () =
    Mutex.lock shards_lock;
    List.iter Hashtbl.reset !shards;
    Mutex.unlock shards_lock

  let snapshot () =
    Mutex.lock shards_lock;
    let merged : (string, int ref) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun shard ->
        Hashtbl.iter
          (fun k r ->
            match Hashtbl.find_opt merged k with
            | Some acc -> acc := !acc + !r
            | None -> Hashtbl.add merged k (ref !r))
          shard)
      !shards;
    Mutex.unlock shards_lock;
    List.sort compare (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) merged [])
end

type fiber =
  | Absent
  | Not_started of (unit -> unit)
  | Suspended of (unit, unit) Effect.Deep.continuation
  | Running  (* transient marker while a resume is in progress *)
  | Finished
  | Crashed of (unit, unit) Effect.Deep.continuation option
      (* a crashed fiber keeps its continuation so [dispose] can free
         its stack *)

type ('op, 'resp) t = {
  procs : int;
  fibers : fiber array;
  steps : int array;
  mutable current : int;  (* process being resumed; -1 outside [step] *)
  mutable rev_trace : ('op, 'resp) Trace.event list;
  mutable trace_n : int;  (* List.length rev_trace, maintained incrementally *)
}

let create ~n =
  if n < 1 then invalid_arg "Sim.create: need at least one process";
  {
    procs = n;
    fibers = Array.make n Absent;
    steps = Array.make n 0;
    current = -1;
    rev_trace = [];
    trace_n = 0;
  }

let n w = w.procs

let record w e =
  w.rev_trace <- e :: w.rev_trace;
  w.trace_n <- w.trace_n + 1

let runtime (type op resp) (w : (op, resp) t) : (module Runtime_intf.S) =
  (module struct
    type 'a obj = { mutable state : 'a; obj_name : string }

    let obj_counter = ref 0

    let obj ?name init =
      incr obj_counter;
      let obj_name =
        match name with Some s -> s | None -> Printf.sprintf "obj%d" !obj_counter
      in
      { state = init; obj_name }

    let access ?info o f =
      Effect.perform Suspend;
      (* The step was granted: apply the transition atomically (no other
         fiber can run until the next Suspend). *)
      let old = o.state in
      let s, r = f old in
      o.state <- s;
      (* State-preserving accesses are flagged for the reduction layer.
         Physical equality catches reads (which return their argument);
         the structural fallback catches rewrites of an equal value, and
         is guarded because object states are arbitrary. *)
      let noop = s == old || (try s = old with Invalid_argument _ -> false) in
      record w (Trace.Step { proc = w.current; obj = o.obj_name; info; noop });
      if !Metrics.enabled then begin
        Metrics.bump "access.total";
        Metrics.bump ("access.obj." ^ o.obj_name);
        match info with Some kind -> Metrics.bump ("access.kind." ^ kind) | None -> ()
      end;
      r

    let read ?info o = access ?info o (fun s -> (s, s))
    let self () = w.current
    let n_procs () = w.procs
  end)

let spawn w ~proc body =
  if proc < 0 || proc >= w.procs then invalid_arg "Sim.spawn: process out of range";
  (match w.fibers.(proc) with
  | Absent -> ()
  | _ -> invalid_arg "Sim.spawn: process already has a body");
  w.fibers.(proc) <- Not_started body

let operation w ~op ~resp f =
  let p = w.current in
  if p < 0 then invalid_arg "Sim.operation: not inside a fiber";
  record w (Trace.Invoke { proc = p; op });
  let r = f () in
  (* [f] may have suspended and resumed many times; re-read the current
     process rather than trusting [p] — they are equal because only [p]'s
     resumes run this code. *)
  record w (Trace.Return { proc = w.current; resp = resp r });
  r

let enabled w =
  let acc = ref [] in
  for p = w.procs - 1 downto 0 do
    match w.fibers.(p) with
    | Not_started _ | Suspended _ -> acc := p :: !acc
    | Absent | Running | Finished | Crashed _ -> ()
  done;
  !acc

let finished w p = match w.fibers.(p) with Finished -> true | _ -> false
let steps_of w p = w.steps.(p)

let crash w p =
  if p < 0 || p >= w.procs then invalid_arg "Sim.crash: process out of range";
  match w.fibers.(p) with
  | Finished -> ()  (* crashing a finished process has no effect *)
  | Crashed _ -> ()  (* idempotent: a second crash is a no-op, not a new fault *)
  | f ->
      if !Metrics.enabled then Metrics.bump "crash";
      w.fibers.(p) <- Crashed (match f with Suspended k -> Some k | _ -> None)

let handler w p =
  {
    Effect.Deep.retc = (fun () -> w.fibers.(p) <- Finished);
    exnc = (fun e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Suspend ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) -> w.fibers.(p) <- Suspended k)
        | _ -> None);
  }

let step w p =
  if p < 0 || p >= w.procs then raise (Invalid_schedule (Printf.sprintf "p%d out of range" p));
  match w.fibers.(p) with
  | Absent -> raise (Invalid_schedule (Printf.sprintf "p%d has no body" p))
  | Running -> raise (Invalid_schedule (Printf.sprintf "p%d re-entered" p))
  | Finished -> raise (Invalid_schedule (Printf.sprintf "p%d already finished" p))
  | Crashed _ -> raise (Invalid_schedule (Printf.sprintf "p%d crashed" p))
  | Not_started body ->
      if !Metrics.enabled then Metrics.bump "step.total";
      w.fibers.(p) <- Running;
      w.current <- p;
      w.steps.(p) <- w.steps.(p) + 1;
      Effect.Deep.match_with body () (handler w p);
      w.current <- -1
  | Suspended k ->
      if !Metrics.enabled then Metrics.bump "step.total";
      w.fibers.(p) <- Running;
      w.current <- p;
      w.steps.(p) <- w.steps.(p) + 1;
      Effect.Deep.continue k ();
      w.current <- -1

(* OCaml frees a fiber's stack only when its continuation is resumed or
   discontinued, never when the continuation is merely dropped, so a
   world abandoned with suspended processes would keep one stack per
   process alive for the life of the program.  [dispose] discontinues
   each of them with an exception private to this module, which unwinds
   the fiber (objects do not catch every exception) back to its handler;
   the world is then finished with and every process is crashed. *)
exception Disposed

let dispose w =
  for p = 0 to w.procs - 1 do
    (match w.fibers.(p) with
    | Suspended k | Crashed (Some k) ->
        w.fibers.(p) <- Running;
        w.current <- p;
        (try Effect.Deep.discontinue k Disposed with Disposed -> ());
        w.current <- -1
    | Absent | Not_started _ | Running | Finished | Crashed None -> ());
    w.fibers.(p) <- Crashed None
  done

let trace w = List.rev w.rev_trace

let trace_len w = w.trace_n

(* Chronological events from position [from] (inclusive) to the end of
   the trace.  O(new events): the checker's incremental node evaluation
   reads only the delta a step appended, never the whole trace. *)
let events_from w ~from =
  let rec take acc k l = if k <= 0 then acc else match l with [] -> acc | e :: rest -> take (e :: acc) (k - 1) rest in
  take [] (w.trace_n - from) w.rev_trace

type ('op, 'resp) program = { procs : int; boot : ('op, 'resp) t -> unit }

let boot_world prog =
  if !Metrics.enabled then Metrics.bump "world.boot";
  let w = create ~n:prog.procs in
  prog.boot w;
  w

let run_schedule prog schedule =
  let w = boot_world prog in
  List.iter (fun p -> step w p) schedule;
  w

(* Replay entry point for untrusted schedules (witness artifacts, shrink
   candidates): a schedule that steps a finished, crashed or out-of-range
   process is reported as [Error] instead of an exception, with the
   offending position for diagnostics. *)
let run_schedule_result prog schedule =
  let w = boot_world prog in
  let rec go i = function
    | [] -> Ok w
    | p :: rest -> (
        match step w p with
        | () -> go (i + 1) rest
        | exception Invalid_schedule msg ->
            Error (Printf.sprintf "step %d (process %d): %s" i p msg))
  in
  go 0 schedule

let run_to_completion ?(choose = fun ps -> List.hd ps) prog =
  let w = boot_world prog in
  let rec loop () =
    match enabled w with
    | [] -> ()
    | ps ->
        step w (choose ps);
        loop ()
  in
  loop ();
  w

(* [crash_after] semantics, pinned by test/test_runtime.ml: the pair
   [(p, at)] crashes [p] at the top of the scheduling loop once the total
   step count has reached [at], i.e. BEFORE the (at+1)-th step is chosen.
   So [p] takes at most [at] of the first [at] total steps and none
   afterwards; [(p, 0)] means [p] never runs.  Re-crashing on later loop
   iterations is harmless because [crash] is idempotent. *)
let run_random_full ~seed ?(crash_after = []) ?max_steps prog =
  let w = boot_world prog in
  let rng = Random.State.make [| seed |] in
  let total = ref 0 in
  let rev_sched = ref [] in
  let continue_run () = match max_steps with None -> true | Some m -> !total < m in
  let rec loop () =
    List.iter (fun (p, at) -> if !total >= at then crash w p) crash_after;
    match enabled w with
    | [] -> ()
    | ps when continue_run () ->
        let p = List.nth ps (Random.State.int rng (List.length ps)) in
        step w p;
        rev_sched := p :: !rev_sched;
        incr total;
        loop ()
    | _ -> ()
  in
  loop ();
  (w, List.rev !rev_sched)

let run_random ~seed ?crash_after ?max_steps prog =
  fst (run_random_full ~seed ?crash_after ?max_steps prog)
