(** Slin_adversary: crash-fault injection, mechanical progress checking
    and fuzzing for the strong-linearizability checker.

    The paper's positive theorems promise {e wait-free} / {e lock-free}
    strong linearizability — guarantees that only mean something against
    an adversary that schedules badly and crashes processes.  This
    module is that adversary, made mechanical:

    - {!Make.wait_free_bound}: exhaustive worst-case steps-per-operation
      over the whole crash-free schedule tree;
    - {!Make.find_livelock}: lock-freedom refutation by lasso detection,
      certified as a [Livelock] witness in the [slin-witness/v1] shape;
    - {!Make.fuzz}: the seeded crash fuzzer behind [slin fuzz];
    - {!agreement_crash_sweep}: Lemma 12's Algorithm B under every
      ≤(k−1)-crash plan over a canonical schedule family, checking k-set
      agreement's validity, agreement and termination.

    The strong-linearizability game against a crashing adversary is the
    checker's own: [Lincheck.Make(S).check_strong_stats ~crashes].

    Observability: the module registers [adversary.*] counters (fuzz
    runs/steps, lasso candidates, sweep runs), live when [Obs.enabled]. *)

module Make (S : Spec.S) : sig
  (** {1 Wait-freedom, exhaustively} *)

  type wf_report = {
    wf_nodes : int;  (** schedule-tree nodes walked *)
    wf_executions : int;  (** complete (quiescent) executions *)
    wf_truncated : int;  (** leaves cut by the depth bound *)
    wf_budget_hit : bool;  (** the node budget stopped the walk *)
    wf_max_steps_per_op : int;  (** worst steps any completed op took *)
  }

  val wait_free_established : wf_report -> bool
  (** True when the walk was exhaustive (no truncation, no budget hit),
      making [wf_max_steps_per_op] an adversarial wait-freedom bound for
      the workload: no schedule makes any operation take more steps. *)

  val pp_wf_report : Format.formatter -> wf_report -> unit

  val wait_free_bound :
    ?max_nodes:int -> ?max_depth:int -> (S.op, S.resp) Sim.program -> wf_report
  (** Walk every crash-free schedule of [prog] (the full schedule tree,
      [max_nodes] default 2M) and report the worst per-operation step
      count over all complete executions. *)

  (** {1 Lock-freedom refutation (lasso detection)} *)

  type lf_result = {
    lf_candidates : int;  (** (driver set, stem) adversaries tried *)
    lf_livelock : Witness.shape option;
        (** a shrunk, verified [Livelock] certificate, if one was found *)
  }

  val find_livelock :
    ?max_drive:int -> ?stem_cap:int -> (S.op, S.resp) Sim.program -> lf_result
  (** Try to refute lock-freedom: for every candidate driver set, run
      the complement briefly (the stem) then drive the set round-robin
      for [max_drive] steps.  A drive window with no completed operation
      whose tail repeats a (process, event-signature) block is a lasso;
      it is returned only if [Witness.Make(S).refutes] confirms the
      [Livelock] certificate.  An empty result is {e not} a lock-freedom
      proof — combine with {!wait_free_bound} (an exhaustively walked
      finite tree has no infinite execution at all). *)

  (** {1 Seeded crash fuzzing} *)

  type violation = {
    v_seed : int;  (** the per-run simulator seed *)
    v_crash_after : (int * int) list;  (** the injected crash plan *)
    v_schedule : int list;
        (** the executed schedule; replays the trace on its own (a crash
            only removes future steps of a process) *)
    v_shape : Witness.shape;  (** shrunk [Not_linearizable] certificate *)
  }

  type fuzz_report = {
    fz_runs : int;
    fz_crashed_runs : int;
    fz_total_steps : int;
    fz_elapsed_ns : int;
    fz_violation : violation option;
    fz_interrupted : bool;
        (** the [interrupt] hook stopped the campaign before all runs
            completed (and no violation was found); stats cover only the
            completed runs *)
  }

  val fuzz_schedules_per_sec : fuzz_report -> float

  val fuzz :
    seed:int ->
    runs:int ->
    ?crash:bool ->
    ?max_steps:int ->
    ?shrink:bool ->
    ?jobs:int ->
    ?profiler:Prof.t ->
    ?coverage:Coverage.t ->
    ?guided:bool ->
    ?interrupt:(unit -> bool) ->
    (S.op, S.resp) Sim.program ->
    fuzz_report
  (** Run up to [runs] random schedules derived from the master [seed]
      (per-run seeds and crash plans come from one PRNG stream, so a
      campaign is a pure function of its arguments), injecting at most
      one crash per run when [crash] (default true), and check every
      trace for linearizability.  The first violation stops the campaign
      and is shrunk (unless [shrink:false]) into a replayable
      [slin-witness/v1] certificate.

      [jobs] (default 1) executes runs on that many domains.  Run
      configurations are pre-drawn in sequential order and "first
      violation" means the index-minimal one, so every report field
      except [fz_elapsed_ns] is identical for every [jobs] value.

      [coverage] records every run's trace-prefix fingerprints and
      access pairs, attributing novel fingerprints to the run that first
      reached them; passive — the report is unchanged.

      [guided] (default false) switches the scheduler from uniform
      random to coverage-guided: each step resumes the enabled process
      whose (world fingerprint, process) edge is least traversed, and —
      once per-run novelty gets scarce — splices in a prefix of a
      retained novelty-bearing schedule (while novelty is abundant,
      fresh exploration beats replaying known prefixes); runs
      discovering new fingerprints are kept as corpus
      seeds (capped, deduplicated by coverage).  Guided campaigns are
      sequential ([jobs] is ignored) and deliberately read coverage —
      they produce different (usually strictly more diverse) schedules
      than uniform mode, which stays the default precisely so seeded
      campaigns remain byte-reproducible.

      [interrupt] is polled between runs; once it returns [true] the
      campaign stops, setting [fz_interrupted] and reporting partial
      stats over the completed runs (signal handlers and serve
      deadlines use this — an uninterrupted campaign's report is
      unchanged). *)
end

(** {1 Algorithm B under crash schedules} *)

type sweep_report = {
  sw_k : int;
  sw_runs : int;
  sw_crashed_runs : int;
  sw_nonterminating : int;  (** runs that hit the step cap *)
  sw_max_distinct : int;  (** most distinct decisions in any run *)
  sw_violations : string list;
      (** one line per violated property; empty when validity, agreement
          and termination all held in every run *)
}

val pp_sweep_report : Format.formatter -> sweep_report -> unit

val agreement_crash_sweep :
  make:((module Runtime_intf.S) -> ('op, 'resp) K_ordering.instance) ->
  ordering:('op, 'resp) K_ordering.witness ->
  inputs:int array ->
  k:int ->
  ?max_crashes:int ->
  ?positions:int list ->
  ?max_steps:int ->
  ?jobs:int ->
  unit ->
  sweep_report
(** Run Lemma 12's Algorithm B under a canonical deterministic schedule
    family (round-robin rotations, fixed priority orders, seeded random
    streams) crossed with {e every} crash plan of at most [max_crashes]
    (default [k - 1]) distinct processes, each crashed at a total-step
    position from [positions].  Each run checks k-set agreement's
    contract: validity (decisions are inputs), agreement (at most [k]
    distinct decisions) and termination (every surviving process
    decides).  [jobs] (default 1) executes the run grid on that many
    domains; runs are independent and merged in grid order, so the
    report is identical for every [jobs] value. *)
