open Olfu_logic
open Olfu_soc
open Olfu_sbst

(** Sound abstract interpretation of tcore programs (Sec. 3.3 from the
    software side): a worklist fixpoint over the instruction CFG with
    {!Aval} register states and a flow-insensitive abstract store,
    deriving which address bits the mission software can ever toggle,
    which registers and memory stay constant, and which code is dead.

    Soundness contract: every concrete {!Isa_sim} execution of the same
    image from its first word stays inside the abstraction — each fetched
    pc satisfies {!pc_reachable}, each register value at a fetch lies in
    {!reg_at}, each store is admitted by {!may_write}/{!store_value}.
    When the abstraction cannot bound a behaviour (a store that may fall
    into the program image, an indirect jump with unbounded targets,
    control leaving the image), the result is {e degraded}: every query
    answers with its top, so all claims remain trivially sound. *)

type access = { a_addr : Aval.t; a_value : Aval.t }

type t

val analyze : ?xlen:int -> ?origin:int -> int array -> t
(** [analyze image] runs the fixpoint on encoded instruction words
    loaded at word address [origin] (default 0), entering at [origin].
    [xlen] defaults to 16.  Raises [Invalid_argument] on an empty image
    or an image that does not fit the address space. *)

val of_items : Soc.config -> Asm.item list -> t
(** Assemble at the config's ROM base and analyze at its [xlen]. *)

val of_program : Soc.config -> Programs.t -> t

val degraded : t -> string option
val passes : t -> int
(** Outer passes over the abstract store until it converged. *)

val image_length : t -> int
val origin : t -> int

(** {1 Per-program queries} *)

val pc_reachable : t -> int -> bool
val dead_pcs : t -> int list
(** Word addresses proven unreachable (empty when degraded: no claim). *)

val reg_at : t -> pc:int -> int -> Aval.t
(** Abstract value of a register just before the instruction at [pc]
    executes (bottom if unreachable, top if degraded). *)

val may_write : t -> addr:int -> bool
val store_value : t -> addr:int -> Aval.t
(** Join of everything that may be stored to [addr] (bottom if nothing). *)

val store_sites : t -> int

val may_read : t -> addr:int -> bool
(** Some load may read [addr] (trivially true when degraded). *)

val load_result : t -> addr:int -> Aval.t
(** Join of everything a load from [addr] may return (bottom if no load
    can read it, top if degraded). *)

val stores_in : t -> Olfu_manip.Memmap.region -> int
(** Store sites whose address is provably inside the region. *)

val unmapped_accesses : t -> Olfu_manip.Memmap.region list -> string list

(** {1 Address-bus queries (over one or more programs)} *)

val addr_bit : t list -> bit:int -> Logic4.t
(** Toggle-join of address bit [bit] over every access (fetch, load,
    store) of every program: [L0]/[L1] if provably constant, else [X]. *)

val constant_addr_bits : width:int -> t list -> (int * bool) list
(** Bits of [0..width-1] with a proven constant value, ascending — the
    program-side counterpart of {!Olfu_manip.Memmap.constant_bits}. *)

val region_constant_bits :
  width:int -> t list -> Olfu_manip.Memmap.region list -> (int * bool) list
(** [Memmap.constant_bits] restricted to the touched regions: the Sec. 4
    memory-map argument instantiated with what the software actually
    uses.  Empty if no region is touched. *)

type check = { ok : bool; violations : string list }

val cross_check :
  width:int -> t list -> Olfu_manip.Memmap.region list -> check
(** Consistency of the program-side and map-side analyses: no access may
    escape the mapped regions, and every map-constant bit over the
    touched regions must be program-constant with the same value. *)

val never_written : t list -> Olfu_manip.Memmap.region -> (int * int) list
(** Maximal sub-intervals of the region no analysed program can store
    to, ascending (empty when degraded). *)

(** {1 Data-bus queries} *)

val rdata_constant_bits : width:int -> t list -> (int * bool) list

(** {1 Hand-off to the structural side} *)

val netlist_assume :
  width:int -> t list -> Olfu_netlist.Netlist.t -> (int * Logic4.t) list
(** Software-proven constants as [Ternary.run ?assume] facts: every
    [Address_reg bit] flop for a constant address bit, every
    [bus_rdata[bit]] input for a constant data bit. *)

val assume_script :
  width:int -> t list -> Olfu_netlist.Netlist.t -> Olfu_manip.Script.t
(** The same facts as a reviewable {!Olfu_manip.Script}: [Tie_flop] per
    named address-register flop, [Tie_input] per constant rdata bit. *)

val software_facts :
  label:string ->
  Soc.config ->
  Olfu_netlist.Netlist.t ->
  (string * t) list ->
  Olfu_lint.Ctx.software
(** Package everything the SW-* lint rules consume, for
    [Lint.run ?software]. *)

(** Activation-condition facts for the safe-fault classifier
    ({!Olfu_safety}): the software-proven constants that contradict the
    activation conditions of stuck-at faults, as netlist-independent
    data.  Unlike {!netlist_assume} the bit facts are kept symbolic and
    resolved per netlist with {!facts_assume}, so the same facts apply to
    the generated netlist and to every manipulated (tied) derivative. *)
type activation_facts = {
  af_label : string;  (** provenance, e.g. ["tcore32-suite"] *)
  af_width : int;  (** address/data width the bit indices refer to *)
  af_addr_bits : (int * bool) list;
      (** address bits constant over every access of every program *)
  af_rdata_bits : (int * bool) list;
      (** bus read-data bits constant over everything the bus returns *)
  af_never_written : (int * int) list;
      (** RAM sub-intervals no analysed program can store to *)
  af_degraded : string list;
      (** programs whose analysis degraded (their facts are still sound
          — a degraded analysis claims nothing) *)
}

val activation_facts :
  label:string -> Soc.config -> (string * t) list -> activation_facts

val facts_assume :
  activation_facts -> Olfu_netlist.Netlist.t -> (int * Logic4.t) list
(** Resolve the bit facts against a concrete netlist, as
    [Ternary.run ?assume] assumptions: every [Address_reg bit] flop for a
    constant address bit, every [bus_rdata[bit]] input for a constant
    data bit.  Nodes absent from the netlist (already tied away by a
    manipulation) are skipped. *)
