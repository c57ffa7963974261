open Olfu_netlist

type polarity = Slow_to_rise | Slow_to_fall

type t = { site : Fault.site; polarity : polarity }

let equal a b =
  a.polarity = b.polarity && a.site.Fault.node = b.site.Fault.node
  && Cell.Pin.equal a.site.Fault.pin b.site.Fault.pin

let compare a b =
  match Int.compare a.site.Fault.node b.site.Fault.node with
  | 0 -> (
    match Cell.Pin.compare a.site.Fault.pin b.site.Fault.pin with
    | 0 -> Stdlib.compare a.polarity b.polarity
    | c -> c)
  | c -> c

let pp nl ppf f =
  let sa =
    {
      Fault.site = f.site;
      stuck = (match f.polarity with Slow_to_rise -> false | Slow_to_fall -> true);
    }
  in
  (* reuse the pin formatting of the stuck-at printer *)
  let s = Fault.to_string nl sa in
  let prefix = String.sub s 0 (String.rindex s 's') in
  Format.fprintf ppf "%s%s" prefix
    (match f.polarity with Slow_to_rise -> "STR" | Slow_to_fall -> "STF")

let to_string nl f = Format.asprintf "%a" (pp nl) f

let universe ?include_ties nl =
  let sa = Fault.universe ?include_ties nl in
  (* the stuck-at universe has two faults per pin; keep one per pin and
     emit both polarities *)
  let acc = ref [] in
  Array.iter
    (fun (f : Fault.t) ->
      if not f.Fault.stuck then begin
        acc := { site = f.Fault.site; polarity = Slow_to_fall } :: !acc;
        acc := { site = f.Fault.site; polarity = Slow_to_rise } :: !acc
      end)
    sa;
  let a = Array.of_list !acc in
  Array.sort compare a;
  a

let untestable fl =
  let dead i = Status.is_undetectable (Flist.status fl i) in
  let n = ref 0 in
  for j = 0 to (Flist.size fl / 2) - 1 do
    if dead (2 * j) || dead ((2 * j) + 1) then n := !n + 2
  done;
  !n

let as_stuck_pair f =
  ( { Fault.site = f.site; stuck = false },
    { Fault.site = f.site; stuck = true } )
