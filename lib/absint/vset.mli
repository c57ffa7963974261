(** Value-set / interval abstract domain for machine words.

    Concretisation: [Bot] is empty, [Set vs] is exactly [vs], [Range
    (lo, hi)] is every word in the closed interval, [Top] is every word.
    All values are expected already masked to the word width by the
    caller. *)

type t = Bot | Set of int list  (** sorted, distinct, length <= {!cap} *)
       | Range of int * int  (** inclusive *)
       | Top

val cap : int
(** Maximum tracked set size (128) before collapsing to an interval. *)

val of_list : int list -> t
val exact : int -> t
val bounds : t -> (int * int) option
(** [None] for [Bot] and [Top]. *)

val contains : t -> int -> bool
val to_list : t -> int list option
(** The exact value list for [Bot]/[Set]; [None] otherwise. *)

val join : t -> t -> t
val equal : t -> t -> bool

val widen : t -> t -> t
(** [widen old new]: like [join] but an interval that grows again after
    the set stage goes to [Top], bounding every ascending chain. *)

val map : (int -> int) -> t -> t
(** Exact image of a small set; [Top] for intervals (the image of an
    interval under a masked operation need not be an interval). *)

val map2 : (int -> int -> int) -> t -> t -> t
(** Cartesian image when the product stays small, else [Top]. *)

val remove : int -> t -> t
(** Sound under-approximating removal: drops [x] from sets and interval
    endpoints, leaves everything else unchanged. *)

val pp : Format.formatter -> t -> unit
