(* Committed references: one [key TAB rendering] line per item; the key
   may itself hold tabs, the rendering may not. *)

let load_tsv path =
  let tbl = Hashtbl.create 64 in
  if Sys.file_exists path then
    List.iter
      (fun line ->
        match String.rindex_opt line '\t' with
        | Some i ->
            Hashtbl.replace tbl (String.sub line 0 i)
              (String.sub line (i + 1) (String.length line - i - 1))
        | None -> ())
      (String.split_on_char '\n' (Wl.read_file path));
  tbl

(** Item results as sorted [key TAB rendering] lines; a raised item
    renders as [ERROR message]. *)
let outcome_lines out =
  List.map
    (fun (k, r) ->
      k ^ "\t" ^ match r with Ok s -> s | Error m -> "ERROR " ^ m)
    out
  |> List.sort compare |> String.concat "\n"

(** Items that raised, have no reference, or differ from it, each
    described in one line; with [complete], also every reference key
    the output lacks (a smoke pass runs a subset of the items). *)
let mismatches ~complete ~expected out =
  let got = Hashtbl.create 64 in
  List.iter (fun (k, _) -> Hashtbl.replace got k ()) out;
  let missing =
    if not complete then []
    else
      Hashtbl.fold (fun k _ acc -> if Hashtbl.mem got k then acc else (k ^ ": missing") :: acc) expected []
      |> List.sort compare
  in
  List.filter_map
    (fun (k, r) ->
      match (r, Hashtbl.find_opt expected k) with
      | Ok s, Some e when s = e -> None
      | Ok s, Some e -> Some (Printf.sprintf "%s: got %s, expected %s" k s e)
      | Ok _, None -> Some (k ^ ": no reference")
      | Error m, _ -> Some (Printf.sprintf "%s: raised %s" k m))
    out
  @ missing

(** Write [lines] as the reference at [path] ([--bless]). *)
let bless path lines =
  let oc = open_out_bin path in
  output_string oc lines;
  output_char oc '\n';
  close_out oc
