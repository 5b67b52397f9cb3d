(* Typed base objects over a runtime.

   Every operation below is exactly one atomic step ([Runtime_intf.S.access]).
   These are the primitives the paper builds from, organized by consensus
   number:

   - consensus number 1: read/write [Register];
   - consensus number 2: [Test_and_set], [Faa_wide] / [Faa_int] (fetch&add),
     [Swap] — the "realistic primitives" of the title;
   - consensus number infinity: [Cas] (compare&swap), used only by the
     baseline universal constructions the paper contrasts against.

   All objects are {e readable} (they expose a [read], one atomic step);
   by Lemma 16 of the paper this does not affect strong linearizability of
   algorithms that do not use the reads.  Algorithm B of Lemma 12 is the
   one place the reads are load-bearing.

   [Test_and_set.make ~procs:2] builds a 2-process test&set (Theorem 19's
   base object): it enforces at runtime that at most two distinct
   processes ever apply [test_and_set] to it. *)

module Make (R : Runtime_intf.S) = struct
  module Register = struct
    type 'a t = 'a R.obj

    let make ?name init = R.obj ?name init
    let read (r : 'a t) = R.read ~info:"read" r
    let write (r : 'a t) v = R.access ~info:"write" r (fun _ -> (v, ()))
  end

  module Test_and_set = struct
    (* State: the bit, plus the set of processes that applied test&set
       (used only to enforce the 2-process restriction). *)
    type t = { cell : (int * int list) R.obj; procs : int option }

    let make ?name ?procs () = { cell = R.obj ?name (0, []); procs }

    let test_and_set (ts : t) =
      let me = R.self () in
      R.access ~info:"test&set" ts.cell (fun (bit, users) ->
          let users = if List.mem me users then users else me :: users in
          (match ts.procs with
          | Some limit when List.length users > limit ->
              invalid_arg
                (Printf.sprintf "Test_and_set: %d-process object used by %d processes" limit
                   (List.length users))
          | _ -> ());
          ((1, users), bit))

    let read (ts : t) = fst (R.read ~info:"read" ts.cell)
  end

  module Faa_wide = struct
    (* The register is a mutable accumulator, so a fetch&add costs the
       size of its delta rather than a full-width copy.  An access that
       changes the value returns a fresh cell with a bumped [epoch]; one
       that does not returns the cell it was given.  The simulator's
       no-op flag therefore sees exactly what it saw with immutable
       values: [epoch] comes first, so its structural comparison of two
       cells stops there and never walks the shared buffer. *)
    type cell = { epoch : int; acc : Bignum.Acc.t }
    type t = cell R.obj

    let make ?name init : t = R.obj ?name { epoch = 0; acc = Bignum.Acc.of_nat init }

    let bump c (delta : Bignum.Signed.t) =
      if Bignum.is_zero delta.mag then c
      else begin
        Bignum.Acc.apply c.acc delta;
        { c with epoch = c.epoch + 1 }
      end

    let fetch_and_add (r : t) delta =
      R.access ~info:"fetch&add" r (fun c ->
          let prev = Bignum.Acc.to_nat c.acc in
          (bump c delta, prev))

    let add (r : t) delta = R.access ~info:"fetch&add" r (fun c -> (bump c delta, ()))

    (* fetch&add(R, 0) with the caller's decoding run inside the step:
       the live buffer is read in place and never leaves the access. *)
    let read_with (r : t) decode = R.access ~info:"fetch&add" r (fun c -> (c, decode c.acc))

    (* The §3 constructions read with fetch&add(R, 0); this is that. *)
    let read (r : t) = read_with r Bignum.Acc.to_nat
  end

  module Faa_int = struct
    type t = int R.obj

    let make ?name init : t = R.obj ?name init
    let fetch_and_add (r : t) d = R.access ~info:"fetch&add" r (fun s -> (s + d, s))
    let read (r : t) = R.read ~info:"read" r
  end

  module Swap = struct
    type 'a t = 'a R.obj

    let make ?name init : _ t = R.obj ?name init
    let swap (r : 'a t) v = R.access ~info:"swap" r (fun s -> (v, s))
    let read (r : 'a t) = R.read ~info:"read" r
  end

  module Cas = struct
    type 'a t = 'a R.obj

    let make ?name init : _ t = R.obj ?name init

    let compare_and_swap (r : 'a t) ~expect v =
      R.access ~info:"cas" r (fun s -> if s = expect then (v, true) else (s, false))

    let read (r : 'a t) = R.read ~info:"read" r

    (* Unconditional atomic update; same consensus power as CAS.  Used by
       the CAS-backed atomic baselines. *)
    let update (r : 'a t) (f : 'a -> 'a * 'b) = R.access ~info:"update" r f
  end
end
