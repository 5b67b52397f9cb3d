(** Arbitrary-precision natural numbers.

    This module is the arithmetic substrate for the {e wide} fetch&add
    registers of Attiya–Castañeda–Enea (PODC 2024, Sections 3.1–3.2): the
    constructions there pack one unbounded value per process into a single
    register by interleaving bits (process [i] owns bits
    [i, i + n, i + 2n, ...] of an n-process register).  Multicore OCaml's
    [Atomic] offers fetch-and-add only on word-sized integers, so the
    registers are backed by this type instead; atomicity is supplied by the
    simulation runtime.

    Values of type {!t} are immutable and always non-negative, and every
    function on them is pure.  The one exception is {!Acc}, a mutable
    accumulator that backs the wide registers so that a fetch&add costs
    the size of its delta, not the width of the register.  The
    representation of {!t} is normalized: equal numbers are structurally
    equal, so polymorphic equality would be safe, but use {!equal} and
    {!compare} anyway. *)

type t

exception Underflow
(** Raised by {!sub} (and {!Signed.apply}) when the result would be
    negative. *)

(** {1 Constants and conversions} *)

val zero : t
val one : t

val of_int : int -> t
(** [of_int k] is [k] as a bignum.  @raise Invalid_argument if [k < 0]. *)

val to_int_opt : t -> int option
(** [to_int_opt x] is [Some k] when [x] fits an OCaml [int]. *)

val to_int_exn : t -> int
(** Like {!to_int_opt}. @raise Failure when the value does not fit. *)

val of_string : string -> t
(** Parse a decimal string. @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Decimal rendering. *)

val to_hex : t -> string
(** Hexadecimal rendering (no ["0x"] prefix, lowercase). *)

val pp : Format.formatter -> t -> unit
(** Prints the decimal rendering. *)

(** {1 Comparison} *)

val equal : t -> t -> bool
val compare : t -> t -> int
val is_zero : t -> bool
val hash : t -> int

(** {1 Arithmetic} *)

val add : t -> t -> t
val succ : t -> t

val sub : t -> t -> t
(** [sub a b] is [a - b]. @raise Underflow if [b > a]. *)

val mul_small : t -> int -> t
(** [mul_small a k] is [a * k] for [0 <= k < 2^30].
    @raise Invalid_argument if [k] is out of range. *)

val divmod_small : t -> int -> t * int
(** [divmod_small a k] is [(a / k, a mod k)] for [1 <= k < 2^30].
    @raise Invalid_argument if [k] is out of range. *)

(** {1 Bit operations}

    Bit [0] is the least significant bit. *)

val pow2 : int -> t
(** [pow2 k] is [2^k].  @raise Invalid_argument if [k < 0]. *)

val ones : int -> t
(** [ones k] is [2^k - 1]: [k] one-bits, the unary encoding of [k].
    @raise Invalid_argument if [k < 0]. *)

val bit : t -> int -> bool
val set_bit : t -> int -> t
val clear_bit : t -> int -> t

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val num_bits : t -> int
(** Position of the highest set bit plus one; [num_bits zero = 0].  This is
    the "register width" metric of experiment E5 (paper §6 discusses the
    cost of storing extremely large values). *)

val popcount : t -> int

(** {1 Strided bit access}

    The interleaved-bit encodings of §3.1–§3.2 view a register of an
    [n]-process system as [n] independent bit streams: stream [i] occupies
    absolute bit positions [i, i + n, i + 2n, ...].  [extract_stride]
    gathers one stream into a contiguous number; [deposit_stride] scatters
    a contiguous number back into stream positions.  Both work a limb at
    a time and visit only the set bits of each limb's stream mask. *)

val extract_stride : t -> offset:int -> stride:int -> t
(** [extract_stride x ~offset ~stride] is the number whose bit [j] is bit
    [offset + j * stride] of [x].
    @raise Invalid_argument if [offset < 0] or [stride < 1]. *)

val deposit_stride : t -> offset:int -> stride:int -> t
(** [deposit_stride v ~offset ~stride] is the number whose bit
    [offset + j * stride] equals bit [j] of [v] and whose other bits are
    zero.  Inverse of {!extract_stride} on its image.
    @raise Invalid_argument if [offset < 0] or [stride < 1]. *)

(** {1 Signed deltas}

    A fetch&add adjustment may be negative (the snapshot construction of
    §3.2 adds [posAdj - negAdj]).  [Signed] represents such deltas without
    making the main type signed. *)

module Signed : sig
  type nat := t

  type t = { neg : bool; mag : nat; shift : int }
  (** [{ neg; mag; shift }] denotes [mag * 2^(31 * shift)] if [not neg],
      and its negation otherwise: [shift] counts whole 31-bit limbs, so a
      delta confined to high bits is stored without its low zero limbs.
      [{ neg = true; mag = zero; _ }] is a valid representation of zero. *)

  val zero : t
  val of_int : int -> t
  val of_nat : ?neg:bool -> nat -> t

  val deposit_stride : ?neg:bool -> nat -> offset:int -> stride:int -> t
  (** [deposit_stride ~neg v ~offset ~stride] denotes
      [±(Bignum.deposit_stride v ~offset ~stride)] with the whole limbs
      below [offset] carried in [shift], so its size follows the bits of
      [v], not [offset].
      @raise Invalid_argument if [offset < 0] or [stride < 1]. *)

  val add : t -> t -> t

  val apply : nat -> t -> nat
  (** [apply x d] is [x + d].  @raise Underflow if the result would be
      negative. *)

  val pp : Format.formatter -> t -> unit
end

(** {1 Accumulator}

    A mutable natural number with spare capacity, for registers that
    receive many small deltas: {!Acc.apply} costs the size of the delta
    (plus carry or borrow propagation), not the width of the value, and
    allocates only when the buffer must grow.  It is the single mutable
    value in this module; nothing else aliases its buffer. *)

module Acc : sig
  type nat := t
  type t

  val of_nat : nat -> t
  (** A fresh accumulator holding a copy of the value. *)

  val to_nat : t -> nat
  (** An immutable copy of the current value; later {!apply} calls do not
      change it. *)

  val apply : t -> Signed.t -> unit
  (** [apply a d] adds [d] to [a] in place.
      @raise Underflow if the result would be negative; [a] is then left
      unchanged. *)

  val num_bits : t -> int

  val extract_stride : t -> offset:int -> stride:int -> nat
  (** As {!Bignum.extract_stride}, reading the current value in place. *)

  val stride_num_bits : t -> offset:int -> stride:int -> int
  (** [stride_num_bits a ~offset ~stride] is
      [num_bits (extract_stride a ~offset ~stride)], computed from the top
      limb down without allocating.
      @raise Invalid_argument if [offset < 0] or [stride < 1]. *)
end
