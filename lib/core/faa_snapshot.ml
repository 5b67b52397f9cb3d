(* Theorem 2: a wait-free strongly-linearizable n-component single-writer
   atomic snapshot from fetch&add.

   As in the max register (Theorem 1), one wide register interleaves the
   per-process components: process i's component is stored in binary in
   absolute bits i, n+i, 2n+i, ...  An update(v) by process i computes the
   bits that differ between v and its previous value prev, and applies a
   single fetch&add of posAdj - negAdj, where posAdj sets the bits going
   0->1 and negAdj clears the bits going 1->0.  A scan is fetch&add(R, 0)
   plus local decoding.  Every operation is one fetch&add — its
   linearization point — hence strong linearizability. *)

module Make (R : Runtime_intf.S) : sig
  include Object_intf.SNAPSHOT

  val width_bits : t -> int
  (** Bits currently used by the backing wide register (bench E5). *)
end = struct
  module P = Prim.Make (R)

  type t = { reg : P.Faa_wide.t; prev_val : int array }

  let create ?name () =
    { reg = P.Faa_wide.make ?name Bignum.zero; prev_val = Array.make (R.n_procs ()) 0 }

  let update t v =
    if v < 0 then invalid_arg "Faa_snapshot.update: negative";
    let i = R.self () and n = R.n_procs () in
    let prev = t.prev_val.(i) in
    if v = prev then P.Faa_wide.add t.reg Bignum.Signed.zero
    else begin
      let vb = Bignum.of_int v and pb = Bignum.of_int prev in
      let changed = Bignum.logxor vb pb in
      let pos = Bignum.logand changed vb in  (* bits 0 -> 1 *)
      let neg = Bignum.logand changed pb in  (* bits 1 -> 0 *)
      let delta =
        Bignum.Signed.add
          (Bignum.Signed.deposit_stride pos ~offset:i ~stride:n)
          (Bignum.Signed.deposit_stride ~neg:true neg ~offset:i ~stride:n)
      in
      P.Faa_wide.add t.reg delta;
      t.prev_val.(i) <- v
    end

  let width_bits t = P.Faa_wide.read_with t.reg Bignum.Acc.num_bits

  let scan t =
    let n = R.n_procs () in
    P.Faa_wide.read_with t.reg (fun packed ->
        Array.init n (fun i ->
            Bignum.to_int_exn (Bignum.Acc.extract_stride packed ~offset:i ~stride:n)))
end
