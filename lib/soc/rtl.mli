open Olfu_logic
open Olfu_netlist

(** Structural-RTL construction kit: bit-vector signals over the netlist
    builder.

    A {!bus} is an array of net ids, LSB first.  All generators emit plain
    gate primitives, so the result is a synthesized-style netlist — the
    input the paper's methodology operates on. *)

type bus = int array

val width : bus -> int

(** All functions take the builder as first argument. *)
type b := Netlist.Builder.t

val input_bus : ?roles:(int -> Netlist.role list) -> b -> string -> int -> bus
(** [input_bus b name w] declares input ports [name[0..w-1]];
    [roles i] annotates bit [i]. *)

val output_bus : ?roles:(int -> Netlist.role list) -> b -> string -> bus -> unit

val const : b -> width:int -> int -> bus
(** Tie cells encoding an integer, LSB first. *)

val slice : bus -> int -> int -> bus
(** [slice v lo len] *)

val concat : bus list -> bus
(** LSB-first concatenation ([concat [low; high]]). *)

val zero_extend : b -> bus -> int -> bus
val sign_extend : b -> bus -> int -> bus

val not_ : ?name:string -> b -> bus -> bus
val and_ : ?name:string -> b -> bus -> bus -> bus
val or_ : ?name:string -> b -> bus -> bus -> bus
val xor_ : ?name:string -> b -> bus -> bus -> bus

val and_bit : b -> int -> bus -> bus
(** Mask every bit of the bus with one enable net. *)

val mux : ?name:string -> b -> sel:int -> a:bus -> b:bus -> bus
(** Per-bit 2:1 mux: [a] when [sel]=0. *)

val mux_tree : b -> sel:bus -> bus list -> bus
(** [mux_tree ~sel inputs]: select [inputs.(sel)]; the list length must be
    [2^(width sel)]. *)

val reduce_or : b -> bus -> int

val eq_const : b -> bus -> int -> int
(** Single net: bus equals the constant. *)

val eq : b -> bus -> bus -> int

val adder : ?name:string -> b -> ?cin:int -> bus -> bus -> bus * int
(** Ripple-carry sum and carry-out. *)

val increment : b -> bus -> bus

val decoder : b -> bus -> int array
(** One-hot decode: [2^w] select nets. *)

val multiplier : b -> bus -> bus -> bus
(** Unsigned array multiplier; result width is the sum of the operand
    widths (ripple accumulation of partial products). *)

val divider : b -> dividend:bus -> divisor:bus -> bus * bus
(** Unsigned restoring divider: [(quotient, remainder)], both the dividend
    width.  A zero divisor yields an all-ones quotient and the shifted-out
    dividend as remainder — exactly what the restoring array computes
    (mirrored bit-for-bit by the behavioural simulator). *)

val barrel_shift : b -> bus -> shamt:bus -> [ `Left | `Right ] -> bus
(** Logical shift by a variable amount (zero fill). *)

(** {1 State} *)

val reg :
  ?name:string ->
  ?roles:(int -> Netlist.role list) ->
  b ->
  rstn:int ->
  d:bus ->
  bus
(** Resettable register (reset to 0), one [Dffr] per bit.  Returns the Q
    bus.  The register is created {e before} its D is known in feedback
    situations — see {!reg_feedback}. *)

val reg_en :
  ?name:string ->
  ?roles:(int -> Netlist.role list) ->
  b ->
  rstn:int ->
  en:int ->
  d:bus ->
  bus
(** Register with load enable (hold mux feedback). *)

val reg_feedback :
  ?name:string ->
  ?roles:(int -> Netlist.role list) ->
  b ->
  rstn:int ->
  width:int ->
  (bus -> bus) ->
  bus
(** [reg_feedback b ~rstn ~width f] creates the register first, applies
    [f q] to build its next-value logic, then closes the loop. *)

val reg_placeholder :
  ?name:string ->
  ?roles:(int -> Netlist.role list) ->
  b ->
  rstn:int ->
  width:int ->
  bus
(** Register with an unconnected D, for mutually-dependent register
    groups; close every one with {!reg_assign} before freezing. *)

val reg_assign : b -> bus -> bus -> unit

val const_of_env : Logic4.t array -> bus -> int option
(** Read back an integer from simulated values (None when any bit X). *)

val drive_int : (int * Logic4.t) list ref -> bus -> int -> unit
(** Helper for testbenches: append assignments setting [bus] to the
    integer. *)
