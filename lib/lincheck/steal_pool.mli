(** Column-level parallelism for the exploration engines.

    The checker's parallel unit is one top-level column (one engine per
    column); fuzz campaigns and the crash sweep use the same loop.  All of them go through {!parallel_for},
    which is exception-safe by construction: a raising body never leaves
    a domain unjoined.  (The module name is historical: it once held a
    work-stealing scheduler that split columns into subtree tasks.) *)

(** {1 Worker capping}

    Domains beyond the machine's core count are a pessimization for this
    CPU-bound engine (they only time-slice the same cores), so callers
    cap the requested [--jobs] at the hardware parallelism. *)

val hardware_domains : unit -> int
(** The effective hardware parallelism: [SLIN_DOMAIN_CAP] (read from the
    environment on every call, so tests can override it) when set to a
    positive integer, else [Domain.recommended_domain_count ()]. *)

val effective_workers : requested:int -> int
(** [min requested (hardware_domains ())], clamped to >= 1. *)

(** {1 Parallel for}

    Dynamic index distribution: workers grab the next undone index from
    a shared cursor, so one slow iteration never stalls a static stride
    class.  Results keyed by index stay deterministic. *)

val parallel_for :
  workers:int ->
  n:int ->
  ?init:(int -> unit) ->
  ?fini:(int -> unit) ->
  (worker:int -> int -> unit) -> unit
(** Run [body ~worker i] for every [i] in [0 .. n-1], distributed over
    [min workers n] domains (the calling domain is worker 0) via an
    atomic cursor; no index runs twice, and index 0 always runs on
    worker 0 (it is claimed before any domain is spawned).  [init w] / [fini w] run on each
    participating worker's own domain before its first index and after
    its last (per-worker profiler lanes, coverage shards).  With
    [workers <= 1] this is the sequential loop
    [init 0; for i = 0 to n-1 do body ~worker:0 i done; fini 0].

    Exceptions: the first exception raised by [body], [init] or [fini]
    on any worker is recorded and stops the cursor: no index is handed
    out after that, indices already taken finish, and the raising worker
    skips its [fini].  Every spawned domain is then joined, and the recorded
    exception is re-raised (with its backtrace) on the calling domain. *)
