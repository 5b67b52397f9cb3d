(* Benchmark and experiment harness.

   Regenerates every experiment table (E1-E5, E7, E8, see DESIGN.md and
   EXPERIMENTS.md) and runs the E6 micro-benchmarks (bechamel timings on
   the solo runtime plus a parallel-runtime throughput table) and the
   fuzz-throughput pass.  Every timing also lands in BENCH_results.json
   so the perf trajectory is tracked PR-over-PR; --quick swaps the
   bechamel suite for a fast manual-timing pass but still writes the
   file.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- --quick # fast pass (quick E2, no bechamel)
     dune exec bench/main.exe -- e3 e5   # selected experiments only *)

let valid_experiments =
  [ "e1"; "e2"; "e3"; "e4"; "e5"; "e6"; "e7"; "e8"; "fuzz"; "checker"; "serve" ]

let usage_and_exit bad =
  Printf.eprintf "unknown argument%s: %s\n"
    (if List.length bad > 1 then "s" else "")
    (String.concat ", " bad);
  Printf.eprintf "usage: main.exe [--quick] [--out FILE] [%s ...]\n"
    (String.concat "|" valid_experiments);
  exit 2

let quick, out_file, chosen =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = ref false and out = ref "BENCH_results.json" in
  let names = ref [] and bad = ref [] in
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        go rest
    | "--out" :: file :: rest ->
        out := file;
        go rest
    | a :: rest when String.length a > 6 && String.sub a 0 6 = "--out=" ->
        out := String.sub a 6 (String.length a - 6);
        go rest
    | a :: rest when List.mem a valid_experiments ->
        names := a :: !names;
        go rest
    | a :: rest ->
        bad := a :: !bad;
        go rest
  in
  go args;
  (match List.rev !bad with [] -> () | bad -> usage_and_exit bad);
  (!quick, !out, List.rev !names)

let selected name = chosen = [] || List.mem name chosen

(* ------------------------------------------------------------------ *)
(* BENCH_results.json: machine-readable perf record                    *)
(* ------------------------------------------------------------------ *)

(* (name, metric, value) triples; metric is "ns_per_op", "ops_per_s" or
   "schedules_per_s". *)
let bench_results : (string * string * float) list ref = ref []

(* Per-campaign fuzz summaries, serialized under the top-level "fuzz"
   key of BENCH_results.json. *)
let fuzz_results : (string * Obs_json.t) list ref = ref []

let record_result name metric value = bench_results := (name, metric, value) :: !bench_results

let bench_history_file = "bench_history.jsonl"

(* Rows of the previous report at [out_file], keyed by (name, metric),
   plus its fuzz summaries keyed by label.  A missing or unparseable
   file contributes nothing (first run, or a hand-edited report). *)
let read_old_results () =
  let open Obs_json in
  let doc =
    if not (Sys.file_exists out_file) then None
    else
      match In_channel.with_open_text out_file In_channel.input_all with
      | exception Sys_error _ -> None
      | s -> ( match of_string s with Ok d -> Some d | Error _ -> None)
  in
  match doc with
  | None -> ([], [])
  | Some doc ->
      let rows =
        match Option.bind (member "results" doc) to_list with
        | None -> []
        | Some l ->
            List.filter_map
              (fun r ->
                match
                  ( Option.bind (member "name" r) to_str,
                    Option.bind (member "metric" r) to_str,
                    Option.bind (member "value" r) to_float )
                with
                | Some n, Some m, Some v -> Some ((n, m), v)
                | _ -> None)
              l
      in
      let fuzz =
        match Option.bind (member "fuzz" doc) to_assoc with Some a -> a | None -> []
      in
      (rows, fuzz)

(* One line per run, appended: full-fidelity record of what this run
   measured (only the fresh rows, never the merged carry-over), so the
   perf trajectory survives any number of partial runs. *)
let append_history ~fresh =
  let open Obs_json in
  let t = Unix.gettimeofday () in
  let tm = Unix.gmtime t in
  let stamp =
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
  in
  let doc =
    Assoc
      [
        ("schema", String "slin-bench-history/v1");
        ("time", String stamp);
        ("quick", Bool quick);
        ( "experiments",
          List
            (List.map
               (fun s -> String s)
               (if chosen = [] then valid_experiments else chosen)) );
        ( "results",
          List
            (List.map
               (fun ((name, metric), value) ->
                 Assoc
                   [ ("name", String name); ("metric", String metric); ("value", Float value) ])
               fresh) );
      ]
  in
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 bench_history_file in
  output_string oc (to_string doc);
  output_char oc '\n';
  close_out oc

(* Merge this run's measurements into [out_file] by (name, metric):
   rows the run re-measured are updated in place, rows it did not touch
   (e.g. `bench checker` leaving the E6 timings alone) are preserved,
   new rows append after them.  A selective run no longer clobbers the
   rest of the report. *)
let write_bench_results () =
  let open Obs_json in
  let fresh = List.rev_map (fun (name, metric, value) -> ((name, metric), value)) !bench_results in
  let old_rows, old_fuzz = read_old_results () in
  let kept =
    List.map
      (fun (k, v) -> (k, Option.value (List.assoc_opt k fresh) ~default:v))
      old_rows
  in
  let added = List.filter (fun (k, _) -> not (List.mem_assoc k kept)) fresh in
  let merged = kept @ added in
  let results =
    List.map
      (fun ((name, metric), value) ->
        Assoc [ ("name", String name); ("metric", String metric); ("value", Float value) ])
      merged
  in
  let fresh_fuzz = List.rev !fuzz_results in
  let kept_fuzz =
    List.map (fun (k, v) -> (k, Option.value (List.assoc_opt k fresh_fuzz) ~default:v)) old_fuzz
  in
  let added_fuzz = List.filter (fun (k, _) -> not (List.mem_assoc k kept_fuzz)) fresh_fuzz in
  let doc =
    Assoc
      [
        ("schema", String "slin-bench/v1");
        ("quick", Bool quick);
        ("results", List results);
        ("fuzz", Assoc (kept_fuzz @ added_fuzz));
      ]
  in
  let oc = open_out out_file in
  output_string oc (to_string doc);
  output_char oc '\n';
  close_out oc;
  append_history ~fresh;
  Format.printf "@.wrote %s (%d results: %d fresh, %d carried over); run appended to %s@."
    out_file (List.length merged) (List.length fresh)
    (List.length merged - List.length fresh)
    bench_history_file

(* ------------------------------------------------------------------ *)
(* E6: micro-benchmarks                                                 *)
(* ------------------------------------------------------------------ *)

let ns_per_op_table : (string * float) list ref = ref []

let bechamel_run ~name (tests : Bechamel.Test.t list) =
  let open Bechamel in
  let open Toolkit in
  let grouped = Test.make_grouped ~name ~fmt:"%s %s" tests in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances grouped in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun key v ->
      match Analyze.OLS.estimates v with
      | Some [ est ] ->
          ns_per_op_table := (key, est) :: !ns_per_op_table;
          record_result key "ns_per_op" est
      | _ -> ())
    results

(* Max register single-operation cost on the solo runtime: the Theorem 1
   construction (wide fetch&add + bit fiddling) vs the read/write
   collect-based baseline vs the atomic reference. *)
let bench_max_register () =
  let open Bechamel in
  let n = 4 in
  let module R = (val Solo_runtime.make ~self:0 ~n ()) in
  let module Faa = Faa_max_register.Make (R) in
  let module Rw = Rw_max_register.Make (R) in
  let module A = Atomic_objects.Make (R) in
  let faa = Faa.create () and rw = Rw.create () and am = A.Max_register.create () in
  let i = ref 0 in
  let tests =
    [
      Test.make ~name:"faa write+read"
        (Staged.stage (fun () ->
             incr i;
             Faa.write_max faa (!i mod 16);
             ignore (Faa.read_max faa)));
      Test.make ~name:"rw write+read"
        (Staged.stage (fun () ->
             incr i;
             Rw.write_max rw (!i mod 16);
             ignore (Rw.read_max rw)));
      Test.make ~name:"atomic write+read"
        (Staged.stage (fun () ->
             incr i;
             A.Max_register.write_max am (!i mod 16);
             ignore (A.Max_register.read_max am)));
    ]
  in
  bechamel_run ~name:"maxreg" tests

(* Snapshot: Theorem 2's wide fetch&add snapshot vs the AAD read/write
   snapshot, update+scan pairs, n = 4. *)
let bench_snapshot () =
  let open Bechamel in
  let n = 4 in
  let module R = (val Solo_runtime.make ~self:0 ~n ()) in
  let module Faa = Faa_snapshot.Make (R) in
  let module Aad = Rw_snapshot.Make (R) in
  let faa = Faa.create () and aad = Aad.create () in
  let i = ref 0 in
  let tests =
    [
      Test.make ~name:"faa update+scan"
        (Staged.stage (fun () ->
             incr i;
             Faa.update faa (!i mod 64);
             ignore (Faa.scan faa)));
      Test.make ~name:"aad update+scan"
        (Staged.stage (fun () ->
             incr i;
             Aad.update aad (!i mod 64);
             ignore (Aad.scan aad)));
    ]
  in
  bechamel_run ~name:"snapshot" tests

(* Wide fetch&add raw cost as the stored value grows (the Sec 6 cost). *)
let bench_wide_faa () =
  let open Bechamel in
  let module R = (val Solo_runtime.make ~self:0 ~n:4 ()) in
  let module P = Prim.Make (R) in
  let mk bits =
    let r = P.Faa_wide.make (Bignum.pow2 bits) in
    Test.make
      ~name:(Printf.sprintf "faa @ %d bits" bits)
      (Staged.stage (fun () -> ignore (P.Faa_wide.fetch_and_add r (Bignum.Signed.of_int 1))))
  in
  bechamel_run ~name:"widefaa" [ mk 16; mk 256; mk 4096; mk 65536 ]

(* Fetch&increment: Theorem 9's construction (readable T&S scan) vs the
   atomic reference.  The T&S construction's cost grows linearly in the
   counter value — the lock-free price — so measure bursts on fresh
   instances. *)
let bench_fetch_inc () =
  let open Bechamel in
  let module R = (val Solo_runtime.make ~self:0 ~n:4 ()) in
  let module RT = Readable_ts.Make (R) in
  let module F = Ts_fetch_inc.Make (RT) in
  let module A = Atomic_objects.Make (R) in
  let tests =
    [
      Test.make ~name:"thm9 fi 30 ops"
        (Staged.stage (fun () ->
             let f = F.create () in
             for _ = 1 to 30 do
               ignore (F.fetch_inc f)
             done));
      Test.make ~name:"atomic fi 30 ops"
        (Staged.stage (fun () ->
             let f = A.Fetch_inc.create () in
             for _ = 1 to 30 do
               ignore (A.Fetch_inc.fetch_inc f)
             done));
    ]
  in
  bechamel_run ~name:"fetchinc" tests

(* Simple-type counter (Algorithm 1): cost grows with history length, so
   measure a fixed-size burst on a fresh instance each run. *)
let bench_simple_counter () =
  let open Bechamel in
  let n = 4 in
  let module R = (val Solo_runtime.make ~self:0 ~n ()) in
  let module Snap = Faa_snapshot.Make (R) in
  let module C = Simple_type.Make (Simple_instances.Counter_type) (Snap) in
  let tests =
    [
      Test.make ~name:"alg1 counter 50 ops"
        (Staged.stage (fun () ->
             let c = C.create ~n () in
             for k = 1 to 50 do
               ignore
                 (C.execute c ~self:0
                    (if k mod 4 = 0 then Spec.Counter.Read else Spec.Counter.Add 1))
             done));
    ]
  in
  bechamel_run ~name:"simple" tests

(* Parallel-runtime throughput: real domains hammering one object. *)
let bench_parallel () =
  Format.printf "@.| parallel runtime (4 domains x 20k ops each) | ops/s@.";
  let n = 4 and per = 20_000 in
  let total = float_of_int (n * per) in
  let time_par name f =
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    record_result ("parallel " ^ name) "ops_per_s" (total /. dt);
    Format.printf "| %-44s | %.0f@." name (total /. dt)
  in
  let module R = (val Par_runtime.make ~n ()) in
  let module Faa = Faa_max_register.Make (R) in
  let module A = Atomic_objects.Make (R) in
  let faa = Faa.create () in
  time_par "Thm 1 max register (wide F&A)" (fun () ->
      ignore
        (Par_runtime.run ~n (fun p ->
             for k = 1 to per do
               if k mod 4 = 0 then ignore (Faa.read_max faa)
               else Faa.write_max faa ((k mod 16) + p)
             done)));
  let am = A.Max_register.create () in
  time_par "atomic max register" (fun () ->
      ignore
        (Par_runtime.run ~n (fun p ->
             for k = 1 to per do
               if k mod 4 = 0 then ignore (A.Max_register.read_max am)
               else A.Max_register.write_max am ((k mod 16) + p)
             done)))

let e6 () =
  Format.printf "%s@." (String.make 78 '-');
  Format.printf "E6: micro-benchmarks (solo runtime; ns per operation via bechamel OLS)@.";
  Format.printf "%s@." (String.make 78 '-');
  bench_max_register ();
  bench_snapshot ();
  bench_wide_faa ();
  bench_fetch_inc ();
  bench_simple_counter ();
  List.iter
    (fun (name, ns) -> Format.printf "| %-44s | %10.1f ns/op@." name ns)
    (List.sort compare !ns_per_op_table);
  bench_parallel ()

(* Quick E6: a single manually-timed burst per construction instead of
   the bechamel suite — coarse, but enough to keep BENCH_results.json
   populated on smoke runs (CI's `bench --quick` step). *)
let e6_quick () =
  Format.printf "%s@." (String.make 78 '-');
  Format.printf "E6 (quick): micro-benchmarks, single manual timing per construction@.";
  Format.printf "%s@." (String.make 78 '-');
  let time_burst name iters f =
    f 64 (* warm up *);
    let t0 = Unix.gettimeofday () in
    f iters;
    let dt = Unix.gettimeofday () -. t0 in
    let ns = dt *. 1e9 /. float_of_int iters in
    record_result ("quick " ^ name) "ns_per_op" ns;
    Format.printf "| %-44s | %10.1f ns/op@." name ns
  in
  let n = 4 in
  let module R = (val Solo_runtime.make ~self:0 ~n ()) in
  let module Faa = Faa_max_register.Make (R) in
  let module Rw = Rw_max_register.Make (R) in
  let module A = Atomic_objects.Make (R) in
  let module Snap = Faa_snapshot.Make (R) in
  let faa = Faa.create () and rw = Rw.create () and am = A.Max_register.create () in
  let snap = Snap.create () in
  time_burst "maxreg faa write+read" 20_000 (fun iters ->
      for i = 1 to iters do
        Faa.write_max faa (i mod 16);
        ignore (Faa.read_max faa)
      done);
  time_burst "maxreg rw write+read" 20_000 (fun iters ->
      for i = 1 to iters do
        Rw.write_max rw (i mod 16);
        ignore (Rw.read_max rw)
      done);
  time_burst "maxreg atomic write+read" 20_000 (fun iters ->
      for i = 1 to iters do
        A.Max_register.write_max am (i mod 16);
        ignore (A.Max_register.read_max am)
      done);
  time_burst "snapshot faa update+scan" 5_000 (fun iters ->
      for i = 1 to iters do
        Snap.update snap (i mod 64);
        ignore (Snap.scan snap)
      done);
  (* Theorem 1 at the register widths the objects benchmark ramps
     through: a write raising the register by one stream bit, plus a
     read.  Each operation gets its own register, every process's stream
     filled to [bits / n] before timing starts (a solo runtime whose
     caller may act as any process), so the width does not drift while
     timing. *)
  let module Any = struct
    include (val Solo_runtime.make ~self:0 ~n () : Runtime_intf.S)

    let who = ref 0
    let self () = !who
  end in
  let module Wide = Faa_max_register.Make (Any) in
  List.iter
    (fun bits ->
      let regs =
        Array.init 256 (fun _ ->
            let m = Wide.create () in
            for p = 0 to n - 1 do
              Any.who := p;
              Wide.write_max m (bits / n)
            done;
            m)
      in
      Any.who := 0;
      let next = ref 0 in
      time_burst
        (Printf.sprintf "maxreg faa write+read @ %d bits" bits)
        (Array.length regs - 64)
        (fun iters ->
          for _ = 1 to iters do
            let m = regs.(!next) in
            incr next;
            Wide.write_max m ((bits / n) + 1);
            ignore (Wide.read_max m)
          done))
    [ 4096; 32768 ];
  (* Bignum width-scaling smoke: the limb loops behind every wide
     fetch&add, at the same widths as the full widefaa suite.  [add v v]
     is the full-length carry chain, [sub (pow2 b) one] the full-length
     borrow chain — together they cover both split hot loops. *)
  List.iter
    (fun bits ->
      let v = Bignum.pow2 bits in
      let iters = max 500 (4_000_000 / bits) in
      time_burst
        (Printf.sprintf "bignum add @ %d bits" bits)
        iters
        (fun iters ->
          for _ = 1 to iters do
            ignore (Bignum.add v v)
          done);
      time_burst
        (Printf.sprintf "bignum sub @ %d bits" bits)
        iters
        (fun iters ->
          for _ = 1 to iters do
            ignore (Bignum.sub v Bignum.one)
          done))
    [ 16; 256; 4096; 65536 ]

(* ------------------------------------------------------------------ *)
(* Fuzz throughput: schedules/sec with and without crash injection      *)
(* ------------------------------------------------------------------ *)

(* How fast the seeded crash fuzzer turns schedules over, and what crash
   injection costs, on a wait-free object (short schedules) and the
   Herlihy-Wing queue (long, spin-heavy schedules).  Campaigns run with
   shrink disabled and on violation-free objects so the figure is pure
   schedule + linearizability-check throughput. *)
let bench_fuzz () =
  Format.printf "@.| fuzz throughput (seeded campaigns)           | schedules/s@.";
  let runs = if quick then 400 else 4_000 in
  let campaign ~name ~crash =
    match Registry.find name with
    | None -> ()
    | Some (Registry.Checkable c) ->
        let (module S) = c.spec in
        let module A = Adversary.Make (S) in
        let prog = Harness.program ~make:c.make ~workload:c.workload in
        let r = A.fuzz ~seed:1 ~runs ~crash ~shrink:false prog in
        let sps = A.fuzz_schedules_per_sec r in
        let label = Printf.sprintf "fuzz %s%s" name (if crash then " +crash" else "") in
        record_result label "schedules_per_s" sps;
        fuzz_results :=
          ( label,
            Obs_json.Assoc
              [
                ("object", Obs_json.String name);
                ("crash_injection", Obs_json.Bool crash);
                ("runs", Obs_json.Int r.A.fz_runs);
                ("crashed_runs", Obs_json.Int r.A.fz_crashed_runs);
                ("total_steps", Obs_json.Int r.A.fz_total_steps);
                ("schedules_per_sec", Obs_json.Float sps);
              ] )
          :: !fuzz_results;
        Format.printf "| %-44s | %.0f@." label sps
  in
  List.iter
    (fun name ->
      campaign ~name ~crash:false;
      campaign ~name ~crash:true)
    [ "counter"; "hw-queue" ]

(* Scheduler A/B under one budget: unique world fingerprints reached by
   the default uniform scheduler vs the coverage-guided one (same master
   seed, same run count, crash injection on, shrink off).  Both rows are
   deterministic — each campaign is a pure function of its arguments —
   so the pair records how much diversity guidance buys, PR over PR. *)
let bench_fuzz_ab () =
  let runs = if quick then 200 else 2_000 in
  Format.printf "@.| fuzz scheduler A/B (%d runs, same seed)     | unique worlds@." runs;
  let campaign ~name ~guided =
    match Registry.find name with
    | None -> ()
    | Some (Registry.Checkable c) ->
        let (module S) = c.spec in
        let module A = Adversary.Make (S) in
        let prog = Harness.program ~make:c.make ~workload:c.workload in
        let cov = Coverage.create () in
        let _ = A.fuzz ~seed:1 ~runs ~crash:true ~shrink:false ~coverage:cov ~guided prog in
        let st = Coverage.stats cov in
        let label =
          Printf.sprintf "fuzz %s %s" name (if guided then "guided" else "uniform")
        in
        record_result label "unique_worlds" (float_of_int st.Coverage.unique);
        Format.printf "| %-44s | %d unique of %d observed@." label st.Coverage.unique
          st.Coverage.observations
  in
  campaign ~name:"hw-queue" ~guided:false;
  campaign ~name:"hw-queue" ~guided:true

(* ------------------------------------------------------------------ *)
(* Checker engine throughput: nodes/sec on the E2 refutations          *)
(* ------------------------------------------------------------------ *)

(* The engine's headline number: node throughput of the strong-
   linearizability game on the two big E2 refutations.  Node counts are
   identical at every [jobs] (the parallel merge is deterministic), so
   nodes/sec rows are directly comparable; CI's perf-smoke step compares
   a fresh jobs=1 run of the hw-queue row against the committed value. *)
let bench_checker () =
  Format.printf "@.| checker engine (SL game, E2 refutations)     | nodes/s@.";
  let nps_tbl = Hashtbl.create 8 in
  let nodes_tbl = Hashtbl.create 8 in
  let run ?(reduce = false) ?preempt_bound ~name ~jobs () =
    match Registry.find name with
    | None -> ()
    | Some (Registry.Checkable c) ->
        let (module S) = c.spec in
        let module L = Lincheck.Make (S) in
        let prog = Harness.program ~make:c.make ~workload:c.workload in
        let _, s =
          L.check_strong_stats ?max_depth:c.default_depth ~jobs ~reduce ?preempt_bound prog
        in
        let nps = Lincheck.nodes_per_sec s in
        let label =
          Printf.sprintf "checker %s%s%s -j %d" name
            (if reduce then " --reduce" else "")
            (match preempt_bound with
            | Some b -> Printf.sprintf " --preempt-bound %d" b
            | None -> "")
            jobs
        in
        Hashtbl.replace nps_tbl (name, jobs, reduce) nps;
        Hashtbl.replace nodes_tbl (name, jobs, reduce) s.Lincheck.nodes;
        record_result label "nodes_per_sec" nps;
        (* Node counts are deterministic (identical at every [jobs]), so
           the jobs=1 rows gate Lower_better in stats diff: on a fixed
           benchmark, more nodes for the same verdict is precisely the
           regression the reduction exists to prevent. *)
        if jobs = 1 then record_result label "nodes_total" (float_of_int s.Lincheck.nodes);
        Format.printf "| %-44s | %.0f (%d nodes)@." label nps s.Lincheck.nodes
  in
  (* Scaling curve, not just a parallel spot-check: -j 1/2/4/8 rows let
     stats diff catch a regression anywhere on the curve. *)
  let jobs_list = if quick then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  List.iter
    (fun jobs ->
      run ~name:"hw-queue" ~jobs ();
      run ~name:"agm-stack" ~jobs ())
    jobs_list;
  (* The partial-order-reduced runs: same verdicts and witnesses (the
     engine-equivalence suite pins that), a fraction of the nodes. *)
  List.iter
    (fun jobs ->
      run ~reduce:true ~name:"hw-queue" ~jobs ();
      run ~reduce:true ~name:"agm-stack" ~jobs ())
    [ 1; 4 ];
  (* Derived scaling ratio: unlike the absolute nodes/s rows (machine-
     dependent, Neutral in stats diff), speedup_j4_over_j1 is scale-free
     and gated Higher_better — it is the number the column-parallel
     engine exists to keep up.  On a single-core host both runs
     collapse to the sequential engine and the ratio honestly reads
     ~1.0. *)
  List.iter
    (fun name ->
      match
        (Hashtbl.find_opt nps_tbl (name, 1, false), Hashtbl.find_opt nps_tbl (name, 4, false))
      with
      | Some n1, Some n4 when n1 > 0. ->
          let sp = n4 /. n1 in
          let label = Printf.sprintf "checker %s" name in
          record_result label "speedup_j4_over_j1" sp;
          Format.printf "| %-44s | %.2fx (j4 over j1)@." (label ^ " scaling") sp
      | _ -> ())
    [ "hw-queue"; "agm-stack" ];
  (* reduction_ratio: unreduced over reduced node count at jobs=1.  Both
     counts are exact and deterministic, so the ratio is scale-free and
     gated Higher_better — down means the sleep-set memo stopped
     pruning. *)
  List.iter
    (fun name ->
      match
        ( Hashtbl.find_opt nodes_tbl (name, 1, false),
          Hashtbl.find_opt nodes_tbl (name, 1, true) )
      with
      | Some full, Some red when red > 0 ->
          let ratio = float_of_int full /. float_of_int red in
          let label = Printf.sprintf "checker %s" name in
          record_result label "reduction_ratio" ratio;
          Format.printf "| %-44s | %.2fx (%d -> %d nodes)@." (label ^ " reduction") ratio
            full red
      | _ -> ())
    [ "hw-queue"; "agm-stack" ];
  (* A previously-infeasible row: hw-queue-deep's refutation needs
     ~2.46M nodes unreduced — past the checker's default 2M budget —
     but the reduced, preemption-bounded game lands it in a few
     thousand.  Recorded unconditionally (it is cheap by construction);
     the node count doubles as a determinism canary. *)
  run ~reduce:true ~preempt_bound:2 ~name:"hw-queue-deep" ~jobs:1 ()

(* ------------------------------------------------------------------ *)
(* Serve throughput: the canonical batch through the supervised pool    *)
(* ------------------------------------------------------------------ *)

(* End-to-end dispatch cost of `slin serve --batch` on the canonical
   quick jobs: queueing, memo/coalesce bookkeeping, worker domains and
   response assembly included.  The request counters ride along as
   neutral rows so stats diff flags a changed batch shape. *)
let bench_serve () =
  Format.printf "@.| serve batch (canonical quick jobs)           | requests/s@.";
  let lines = Experiments.serve_jobs ~quick:true () in
  let t0 = Unix.gettimeofday () in
  let t = Serve.create Serve.default_config in
  let rs = Serve.run_batch t lines in
  let dt = Unix.gettimeofday () -. t0 in
  let rps = float_of_int (List.length rs) /. dt in
  record_result "serve batch" "requests_per_s" rps;
  let rep = Serve.report t in
  List.iter
    (fun k ->
      match Obs_json.member k rep with
      | Some (Obs_json.Int n) -> record_result "serve batch" k (float_of_int n)
      | _ -> ())
    [ "requests"; "done"; "inconclusive"; "rejected"; "coalesced" ];
  Format.printf "| %-44s | %.1f@."
    (Printf.sprintf "serve batch (%d requests)" (List.length rs))
    rps

let () =
  if selected "e1" then Experiments.e1 ();
  if selected "e2" then Experiments.e2 ~quick ();
  if selected "e3" then Experiments.e3 ();
  if selected "e4" then Experiments.e4 ();
  if selected "e5" then Experiments.e5 ();
  if selected "e7" then Experiments.e7 ();
  if selected "e8" then Experiments.e8 ();
  if selected "e6" then if quick then e6_quick () else e6 ();
  if selected "fuzz" then begin
    bench_fuzz ();
    bench_fuzz_ab ()
  end;
  if selected "checker" then bench_checker ();
  if selected "serve" then bench_serve ();
  write_bench_results ();
  Format.printf "@.All selected experiments completed.@."
