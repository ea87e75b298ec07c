exception Mismatch of string

type t = { path : string; mutable oc : out_channel option }

type recovered = {
  r_stages : (string * string list) list;
  r_dropped_lines : int;
}

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let journal_path dir = Filename.concat dir "journal.jsonl"
let path t = t.path

(* ---------------- flat JSON of the restricted shape ----------------- *)

let jstr = Obs.json_string
let jlist items = "[" ^ String.concat "," (List.map jstr items) ^ "]"

(* Parser for exactly the objects we write: string keys mapping to a
   string, a bool, or an array of strings.  Anything else is a parse
   failure (the line is treated as damage). *)
type jv = Jstr of string | Jbool of bool | Jarr of string list

let parse_flat s =
  let n = String.length s in
  let pos = ref 0 in
  let fail () = raise Exit in
  let peek () = if !pos >= n then fail () else s.[!pos] in
  let advance () = incr pos in
  let expect c = if peek () <> c then fail () else advance () in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              if !pos + 4 >= n then fail ();
              let hex = String.sub s (!pos + 1) 4 in
              (match int_of_string_opt ("0x" ^ hex) with
              | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
              | _ -> fail ());
              pos := !pos + 4
          | _ -> fail ());
          advance ();
          go ()
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_value () =
    match peek () with
    | '"' -> Jstr (parse_string ())
    | 't' ->
        if !pos + 4 <= n && String.sub s !pos 4 = "true" then begin
          pos := !pos + 4;
          Jbool true
        end
        else fail ()
    | 'f' ->
        if !pos + 5 <= n && String.sub s !pos 5 = "false" then begin
          pos := !pos + 5;
          Jbool false
        end
        else fail ()
    | '[' ->
        advance ();
        if peek () = ']' then begin
          advance ();
          Jarr []
        end
        else begin
          let rec items acc =
            let item = parse_string () in
            match peek () with
            | ',' ->
                advance ();
                items (item :: acc)
            | ']' ->
                advance ();
                List.rev (item :: acc)
            | _ -> fail ()
          in
          Jarr (items [])
        end
    | _ -> fail ()
  in
  try
    expect '{';
    let rec fields acc =
      let key = parse_string () in
      expect ':';
      let v = parse_value () in
      match peek () with
      | ',' ->
          advance ();
          fields ((key, v) :: acc)
      | '}' ->
          advance ();
          List.rev ((key, v) :: acc)
      | _ -> fail ()
    in
    let fs = fields [] in
    if !pos <> n then None else Some fs
  with Exit -> None

(* ---------------- line framing -------------------------------------- *)

(* One record is one line:

     {"crc":"xxxxxxxx","type":...,...}

   where the CRC-32 covers everything after the [crc] field's
   terminating comma — so the checksum protects exactly the payload it
   prefixes, and a torn tail fails either the frame match or the CRC. *)
let frame body = Printf.sprintf "{\"crc\":\"%s\",%s" (Engine.Checksum.crc32_hex body) body

let unframe line =
  let prefix = "{\"crc\":\"" in
  let plen = String.length prefix in
  if
    String.length line < plen + 9
    || not (String.sub line 0 plen = prefix)
    || line.[plen + 8] <> '"'
    || line.[plen + 9] <> ','
  then None
  else
    let crc = String.sub line plen 8 in
    let body = String.sub line (plen + 10) (String.length line - plen - 10) in
    if Engine.Checksum.check_hex body ~crc then Some ("{" ^ body) else None

let write_record t body =
  match t.oc with
  | None -> invalid_arg "Journal: record after close"
  | Some oc ->
      output_string oc (frame body ^ "\n");
      flush oc;
      (* fsync: the record must survive a machine-level crash before the
         work it acknowledges is skipped by a future resume *)
      (try Unix.fsync (Unix.descr_of_out_channel oc)
       with Unix.Unix_error _ -> ())

(* ---------------- records ------------------------------------------- *)

let header_body ~digest ~label =
  Printf.sprintf "\"type\":\"run\",\"version\":\"1\",\"digest\":%s,\"label\":%s}"
    (jstr digest) (jstr label)

let create ~dir ~digest ~label =
  mkdir_p dir;
  let oc = open_out (journal_path dir) in
  let t = { path = journal_path dir; oc = Some oc } in
  write_record t (header_body ~digest ~label);
  t

let record_stage t ~name ~items =
  write_record t
    (Printf.sprintf "\"type\":\"stage\",\"name\":%s,\"items\":%s}" (jstr name)
       (jlist items))

let record_end t ~ok =
  write_record t
    (Printf.sprintf "\"type\":\"end\",\"ok\":%s}" (if ok then "true" else "false"))

let close t =
  match t.oc with
  | None -> ()
  | Some oc ->
      t.oc <- None;
      close_out_noerr oc

(* ---------------- replay -------------------------------------------- *)

let field fs key = List.assoc_opt key fs

let resume ~dir ~digest =
  let jp = journal_path dir in
  if not (Sys.file_exists jp) then
    raise (Mismatch (Printf.sprintf "no journal at %s" jp));
  let ic = open_in_bin jp in
  let stages = ref [] in
  let dropped = ref 0 in
  let good_upto = ref 0 in
  let header_seen = ref false in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let stop = ref false in
      let line_start = ref 0 in
      while not !stop do
        match input_line ic with
        | exception End_of_file -> stop := true
        | line -> (
            (* a CRC-valid line that lost its newline is still a torn
               write: appending after it would glue two records *)
            let after = pos_in ic in
            let terminated = after - !line_start = String.length line + 1 in
            line_start := after;
            match
              if terminated then Option.bind (unframe line) parse_flat
              else None
            with
            | None ->
                (* first damage: everything after it is untrusted *)
                incr dropped;
                stop := true
            | Some fs -> (
                let ok =
                  match field fs "type" with
                  | Some (Jstr "run") -> (
                      match (field fs "digest", field fs "label") with
                      | Some (Jstr d), Some (Jstr _) ->
                          if !header_seen then false
                          else if d <> digest then
                            raise
                              (Mismatch
                                 (Printf.sprintf
                                    "journal is for digest %s, run is %s — \
                                     the netlist or environment changed"
                                    d digest))
                          else begin
                            header_seen := true;
                            true
                          end
                      | _ -> false)
                  | Some (Jstr "stage") -> (
                      match (field fs "name", field fs "items") with
                      | Some (Jstr name), Some (Jarr items) ->
                          !header_seen
                          &&
                          (stages := (name, items) :: !stages;
                           true)
                      | _ -> false)
                  | Some (Jstr "end") -> (
                      match field fs "ok" with
                      | Some (Jbool _) -> !header_seen
                      | _ -> false)
                  | _ -> false
                in
                if ok then good_upto := pos_in ic
                else begin
                  incr dropped;
                  stop := true
                end))
      done);
  if not !header_seen then
    raise (Mismatch (Printf.sprintf "journal at %s has no valid header" jp));
  (* count any bytes past the last good record as dropped damage and
     truncate them away before appending *)
  let size = (Unix.stat jp).Unix.st_size in
  if size > !good_upto then begin
    if !dropped = 0 then incr dropped;
    let fd = Unix.openfile jp [ Unix.O_WRONLY ] 0o644 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.ftruncate fd !good_upto)
  end;
  let oc = open_out_gen [ Open_append; Open_wronly ] 0o644 jp in
  ( { path = jp; oc = Some oc },
    { r_stages = List.rev !stages; r_dropped_lines = !dropped } )
