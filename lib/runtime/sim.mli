(** Deterministic simulator for the asynchronous shared-memory model.

    A {e world} holds [n] processes (cooperative fibers) and the shared
    base objects they create through the world's {!runtime}.  Every
    {!Runtime_intf.S.access} suspends the calling fiber; {!step} resumes a
    chosen process for exactly one atomic step.  The sequence of choices —
    the {e schedule} — fully determines the execution, so executions can be
    replayed, enumerated exhaustively, and subjected to crash injection,
    which is how the strong-linearizability checker explores the execution
    tree.

    Worlds are parameterized by the high-level operation and response types
    ['op] and ['resp] of the object under test; {!operation} brackets an
    operation so that its invocation and response appear in the trace. *)

type ('op, 'resp) t
(** A world. *)

exception Invalid_schedule of string
(** Raised by {!step} when asked to run a process that is finished,
    crashed, or out of range. *)

val create : n:int -> ('op, 'resp) t
(** [create ~n] is a fresh world with [n] processes and no fibers yet. *)

(** Opt-in metrics aggregated across {e all} worlds — the checker boots
    one world per explored schedule, so per-world counts cannot describe
    a whole exploration.  Keys: ["access.total"], ["access.obj.NAME"]
    (per base object), ["access.kind.KIND"] (per access kind, from the
    [info] label), ["step.total"], ["world.boot"], ["crash"].  Disabled
    by default; when disabled every instrumentation site costs one
    load-and-branch and nothing is recorded, so executions (and checker
    node counts) are unaffected either way. *)
module Metrics : sig
  val enabled : bool ref

  val reset : unit -> unit
  (** Drop all accumulated counts (every domain's shard). *)

  val snapshot : unit -> (string * int) list
  (** Accumulated counts merged across all domains' shards, sorted by
      key.  Call only while no other domain is simulating — the checker
      joins its worker domains before reporting, so every existing call
      site satisfies this. *)
end

val n : _ t -> int

val runtime : _ t -> (module Runtime_intf.S)
(** The runtime through which algorithms create and access this world's
    base objects.  Each world has its own. *)

val spawn : ('op, 'resp) t -> proc:int -> (unit -> unit) -> unit
(** [spawn w ~proc body] installs [body] as the program of process [proc].
    The body does not run until [proc] is first scheduled.
    @raise Invalid_argument if [proc] already has a body or is out of
    range. *)

val operation : ('op, 'resp) t -> op:'op -> resp:('r -> 'resp) -> (unit -> 'r) -> 'r
(** [operation w ~op ~resp f] brackets the high-level operation [f]:
    records [Invoke] in the trace, runs [f], records [Return] carrying
    [resp (f ())].  Must be called from a fiber of [w]. *)

(** {1 Scheduling} *)

val enabled : _ t -> int list
(** Processes that can take a step (spawned, not finished, not crashed),
    in increasing order. *)

val step : _ t -> int -> unit
(** [step w p] resumes process [p] for one step: the first resume runs the
    body up to (not including) its first access; every later resume applies
    exactly one pending access and runs up to the next one (or to
    completion).  @raise Invalid_schedule if [p] is not enabled. *)

val crash : _ t -> int -> unit
(** [crash w p] permanently removes [p] from the schedulable set, modelling
    a crash; any pending operation of [p] stays pending forever.  Crashing
    a process that is already crashed or finished is a no-op (idempotent —
    repeated injection of the same fault is not a new fault). *)

val dispose : _ t -> unit
(** [dispose w] frees the fiber stacks of [w]'s suspended and crashed
    processes by unwinding them with an exception private to this module;
    afterwards every process of [w] counts as crashed.  OCaml releases a
    fiber's stack only when its continuation is resumed or discontinued,
    so a world dropped without [dispose] keeps one stack per unfinished
    process alive.  Call it on a world the caller is done with, never on
    one handed to someone else.  The trace is kept. *)

val finished : _ t -> int -> bool
(** [finished w p] is true when [p]'s body ran to completion. *)

val steps_of : _ t -> int -> int
(** Number of steps [p] has taken (its resumes so far). *)

val trace : ('op, 'resp) t -> ('op, 'resp) Trace.t
(** Events so far, in chronological order. *)

val trace_len : _ t -> int
(** Number of events recorded so far ([List.length (trace w)], O(1)). *)

val events_from : ('op, 'resp) t -> from:int -> ('op, 'resp) Trace.event list
(** [events_from w ~from] is the chronological suffix of [trace w]
    starting at position [from] — the delta since a caller last observed
    [trace_len w = from].  Costs O(number of new events), so incremental
    consumers never pay for the whole trace. *)

(** {1 Programs and drivers}

    A program packages everything needed to (re-)execute a workload from
    scratch, which exploration does once per schedule. *)

type ('op, 'resp) program = {
  procs : int;  (** number of processes *)
  boot : ('op, 'resp) t -> unit;
      (** creates the shared objects and spawns all process bodies *)
}

val run_schedule : ('op, 'resp) program -> int list -> ('op, 'resp) t
(** Boot a fresh world and apply the given schedule.
    @raise Invalid_schedule as {!step} does. *)

val run_schedule_result : ('op, 'resp) program -> int list -> (('op, 'resp) t, string) result
(** Like {!run_schedule} for untrusted schedules (witness replay, shrink
    candidates): an invalid step yields [Error] describing the offending
    position instead of raising. *)

val run_to_completion : ?choose:(int list -> int) -> ('op, 'resp) program -> ('op, 'resp) t
(** Boot a fresh world and keep stepping until no process is enabled.
    [choose] picks the next process among the enabled ones (default: the
    smallest index — round-robin-free but deterministic). *)

val run_random :
  seed:int -> ?crash_after:(int * int) list -> ?max_steps:int -> ('op, 'resp) program -> ('op, 'resp) t
(** Boot a fresh world and schedule uniformly at random ([seed] makes the
    run reproducible).  [crash_after] is a list of [(proc, step_number)]
    pairs: [proc] is crashed at the top of the scheduling loop once the
    total step count has reached [step_number] — i.e. {e before} the
    [(step_number + 1)]-th step is chosen, so [proc] takes no step once
    [step_number] total steps have run, and [(proc, 0)] means [proc]
    never runs at all.  Stops after [max_steps] total steps (default: run
    until quiescence). *)

val run_random_full :
  seed:int ->
  ?crash_after:(int * int) list ->
  ?max_steps:int ->
  ('op, 'resp) program ->
  ('op, 'resp) t * int list
(** Like {!run_random} (identical RNG stream, so [run_random ~seed p] and
    [fst (run_random_full ~seed p)] are the same execution) but also
    returns the schedule actually executed.  Crashes need no separate
    encoding for replay: a crash only removes a process's {e future}
    steps, so re-running the returned schedule through {!run_schedule}
    reproduces the identical trace — the crashed process simply never
    appears again.  This is what makes fuzz-found violations replayable
    as plain [slin-witness/v1] schedules. *)
