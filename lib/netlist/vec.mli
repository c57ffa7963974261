(** Growable array (OCaml 5.1 predates [Dynarray]). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit

val push : 'a t -> 'a -> int
(** Appends and returns the index of the new element. *)

val to_array : 'a t -> 'a array
val iteri : (int -> 'a -> unit) -> 'a t -> unit
