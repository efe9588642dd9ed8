(* Peak resident set sizes read from /proc (Linux); 0 where unreadable. *)

let read_file path =
  match open_in path with
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        In_channel.input_all ic)
  | exception Sys_error _ -> ""

(* VmHWM of a process, in MB. *)
let hwm_mb pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> (
        match String.split_on_char ' ' (String.trim v) with
        | kb :: _ -> (
          match float_of_string_opt kb with
          | Some kb -> kb /. 1024.0
          | None -> acc)
        | [] -> acc)
      | _ -> acc)
    0.0
    (String.split_on_char '\n' status)

(* Direct children of [pid], from the ppid field of /proc/N/stat. *)
let children pid =
  match Sys.readdir "/proc" with
  | exception Sys_error _ -> []
  | entries ->
    Array.to_list entries
    |> List.filter_map (fun e ->
           match int_of_string_opt e with
           | None -> None
           | Some child -> (
             let stat = read_file (Printf.sprintf "/proc/%d/stat" child) in
             (* "pid (comm) state ppid ..."; comm may hold spaces *)
             match String.rindex_opt stat ')' with
             | None -> None
             | Some i -> (
               match
                 String.split_on_char ' '
                   (String.sub stat (i + 2) (String.length stat - i - 2))
               with
               | _state :: ppid :: _ when int_of_string_opt ppid = Some pid ->
                 Some child
               | _ -> None)))

(* The largest peak RSS among the direct children of [pid]. *)
let children_hwm_mb pid =
  List.fold_left (fun acc c -> Float.max acc (hwm_mb c)) 0.0 (children pid)

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter
      (fun e -> remove_tree (Filename.concat path e))
      (try Sys.readdir path with Sys_error _ -> [||]);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()
