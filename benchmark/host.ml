(* What the benchmark reads about processes and the machine: CPU time and
   peak resident set from /proc, and the facts the provenance header
   records. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* user + system CPU seconds of a process, from /proc/<pid>/stat (fields
   14 and 15, in USER_HZ = 100 ticks per second on Linux).  The command
   name can contain spaces, so fields are counted after its ')'. *)
let cpu_seconds pid =
  let s = read_file (Printf.sprintf "/proc/%s/stat" pid) in
  let start = String.rindex s ')' + 2 in
  (* field 3 (the state) is f.(0) *)
  let f =
    Array.of_list
      (String.split_on_char ' ' (String.sub s start (String.length s - start)))
  in
  float_of_int (int_of_string f.(11) + int_of_string f.(12)) /. 100.

let self_cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* VmHWM of a process, in MB; 0 for a process that has died (its zombie
   has no memory lines). *)
let peak_rss_mb pid =
  match
    List.find_opt
      (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%s/status" pid)))
  with
  | Some line -> Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
  | None -> 0.

let nproc () =
  List.length
    (List.filter
       (fun l -> String.starts_with ~prefix:"processor" l)
       (String.split_on_char '\n' (read_file "/proc/cpuinfo")))

let cpu_model () =
  match
    List.find_opt
      (fun l -> String.starts_with ~prefix:"model name" l)
      (String.split_on_char '\n' (read_file "/proc/cpuinfo"))
  with
  | Some l -> String.trim (List.nth (String.split_on_char ':' l) 1)
  | None -> "unknown"

(* The comparison key: results from different hardware are not
   comparable, so [compare] refuses to mix them. *)
let host () = Printf.sprintf "%s x%d" (cpu_model ()) (nproc ())

let git_describe () =
  let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
  let s = try String.trim (input_line ic) with End_of_file -> "" in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 when s <> "" -> s
  | _ -> "none"
