module D = Netlist.Design

type verdict = Proved | Disproved

type scope = string (* hex digest of (design, assume) *)

type scope_state = {
  entries : (string, verdict) Hashtbl.t;
  mutable dirty : bool;
}

type stats = {
  hits : int;
  misses : int;
  stored : int;
  corrupt_files : int;
  salvaged_entries : int;
}

type t = {
  dir : string option;
  scopes : (scope, scope_state) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable stored : int;
  mutable corrupt : int;
  mutable salvaged : int;
}

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ---------------- single-writer discipline --------------------------- *)

(* Every mutation of the cache directory — flush, stale-tmp cleanup,
   quarantine moves — happens under an exclusive lock on
   [<dir>/.lock], so two processes sharing a cache directory serialize
   their writes instead of clobbering each other's tmp files.  Readers
   never take the lock: a reader sees either the old or the new file of
   an atomic rename, and per-entry CRCs catch anything torn below the
   rename. *)
let with_dir_lock dir f =
  let lock_path = Filename.concat dir ".lock" in
  let fd = Unix.openfile lock_path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.lockf fd Unix.F_LOCK 0;
      Fun.protect ~finally:(fun () -> Unix.lockf fd Unix.F_ULOCK 0) f)

let is_tmp name = Filename.check_suffix name ".tmp"

(* A tmp file can only exist mid-flush, and flushes are serialized by
   the directory lock — so under the lock, any tmp file is an orphan of
   a crashed writer and safe to delete. *)
let sweep_stale_tmps dir =
  Array.iter
    (fun name ->
      if is_tmp name then
        try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||])

let create ?dir () =
  Option.iter
    (fun d ->
      mkdir_p d;
      with_dir_lock d (fun () -> sweep_stale_tmps d))
    dir;
  {
    dir;
    scopes = Hashtbl.create 8;
    hits = 0;
    misses = 0;
    stored = 0;
    corrupt = 0;
    salvaged = 0;
  }

let dir t = t.dir

let stats t =
  { hits = t.hits; misses = t.misses; stored = t.stored;
    corrupt_files = t.corrupt; salvaged_entries = t.salvaged }

(* ---------------- content addressing -------------------------------- *)

let scope_digest design ~assume =
  let b = Buffer.create 4096 in
  Buffer.add_string b "pdat-scope-v1\n";
  Buffer.add_string b (string_of_int assume);
  Buffer.add_char b '\n';
  D.iter_cells design (fun _ c ->
      Buffer.add_string b (Netlist.Cell.name c.D.kind);
      Array.iter
        (fun i ->
          Buffer.add_char b ' ';
          Buffer.add_string b (string_of_int i))
        c.D.ins;
      Buffer.add_char b '>';
      Buffer.add_string b (string_of_int c.D.out);
      if c.D.init then Buffer.add_char b '!';
      Buffer.add_char b '\n');
  List.iter
    (fun (nm, net) ->
      Buffer.add_string b "i ";
      Buffer.add_string b nm;
      Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int net);
      Buffer.add_char b '\n')
    (D.inputs design);
  List.iter
    (fun (nm, net) ->
      Buffer.add_string b "o ";
      Buffer.add_string b nm;
      Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int net);
      Buffer.add_char b '\n')
    (D.outputs design);
  Digest.to_hex (Digest.string (Buffer.contents b))

let candidate_key = Candidate.key

(* ---------------- disk format --------------------------------------- *)

(* v2: every entry line carries its own CRC-32, so a torn write is
   localized — the valid prefix is salvaged, the damage quarantined.

     pdat-proof-cache v2 <scope>
     P <key> <crc32-of-"P <key>">
     D <key> <crc32>
     end <count>
*)
let header = "pdat-proof-cache v2"

let file_of t sc =
  Option.map (fun d -> Filename.concat d (sc ^ ".pdatcache")) t.dir

let entry_body verdict key =
  (match verdict with Proved -> "P " | Disproved -> "D ") ^ key

let entry_line verdict key =
  let body = entry_body verdict key in
  body ^ " " ^ Checksum.crc32_hex body

(* Parse one entry line; [None] for anything that is not a CRC-valid
   entry. *)
let parse_entry line =
  match String.rindex_opt line ' ' with
  | None -> None
  | Some i ->
      let body = String.sub line 0 i in
      let crc = String.sub line (i + 1) (String.length line - i - 1) in
      if not (Checksum.check_hex body ~crc) then None
      else
        let verdict_of = function "P" -> Some Proved | "D" -> Some Disproved | _ -> None in
        (match String.index_opt body ' ' with
        | Some j when j > 0 -> (
            match verdict_of (String.sub body 0 j) with
            | Some v ->
                Some (String.sub body (j + 1) (String.length body - j - 1), v)
            | None -> None)
        | _ -> None)

type load_result = {
  l_entries : (string, verdict) Hashtbl.t;
  l_damaged : bool;   (* anything unreadable: header, an entry, the trailer *)
  l_salvaged : int;   (* CRC-valid entries recovered from a damaged file *)
}

(* Reads greedily up to the first damage: a crash-truncated file yields
   every entry that made it to disk intact.  Entries after a damaged
   line are dropped (conservative: we cannot tell a torn tail from an
   interleaved write). *)
let load_file path sc =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let entries = Hashtbl.create 256 in
      let damaged = ref false in
      (match input_line ic with
      | l when l = header ^ " " ^ sc -> (
          let finished = ref false in
          try
            while not !finished && not !damaged do
              let line = input_line ic in
              match parse_entry line with
              | Some (key, v) -> Hashtbl.replace entries key v
              | None -> (
                  match String.split_on_char ' ' line with
                  | [ "end"; n ]
                    when int_of_string_opt n = Some (Hashtbl.length entries) ->
                      finished := true;
                      (* anything after the trailer is damage too *)
                      (match input_line ic with
                      | _ -> damaged := true
                      | exception End_of_file -> ())
                  | _ -> damaged := true)
            done
          with End_of_file -> damaged := true (* missing trailer *))
      | _ -> damaged := true
      | exception End_of_file -> damaged := true);
      {
        l_entries = entries;
        l_damaged = !damaged;
        l_salvaged = (if !damaged then Hashtbl.length entries else 0);
      })

(* Damaged files are preserved for diagnosis, not silently overwritten:
   they move (under the directory lock) into [<dir>/quarantine/] with a
   unique suffix. *)
let quarantine_seq = ref 0

let quarantine t path =
  match t.dir with
  | None -> ()
  | Some d -> (
      let qdir = Filename.concat d "quarantine" in
      incr quarantine_seq;
      let dest =
        Filename.concat qdir
          (Printf.sprintf "%s.%d.%d.corrupt" (Filename.basename path)
             (Unix.getpid ()) !quarantine_seq)
      in
      try
        with_dir_lock d (fun () ->
            mkdir_p qdir;
            Sys.rename path dest)
      with Sys_error _ | Unix.Unix_error _ -> ())

let scope_state t sc =
  match Hashtbl.find_opt t.scopes sc with
  | Some st -> st
  | None ->
      let st =
        match file_of t sc with
        | Some path when Sys.file_exists path -> (
            match load_file path sc with
            | { l_damaged = false; l_entries; _ } ->
                { entries = l_entries; dirty = false }
            | { l_damaged = true; l_entries; l_salvaged } ->
                t.corrupt <- t.corrupt + 1;
                t.salvaged <- t.salvaged + l_salvaged;
                Obs.add_int "cache.corrupt_files" 1;
                Obs.add_int "cache.salvaged_entries" l_salvaged;
                quarantine t path;
                (* dirty: the next flush rewrites a clean file from the
                   salvaged entries *)
                { entries = l_entries; dirty = Hashtbl.length l_entries > 0 }
            | exception Sys_error _ ->
                t.corrupt <- t.corrupt + 1;
                Obs.add_int "cache.corrupt_files" 1;
                { entries = Hashtbl.create 16; dirty = false })
        | Some _ | None -> { entries = Hashtbl.create 16; dirty = false }
      in
      Hashtbl.replace t.scopes sc st;
      st

let scope t ~design ~assume =
  let sc = scope_digest design ~assume in
  ignore (scope_state t sc);
  sc

let find t sc cand =
  let st = scope_state t sc in
  match Hashtbl.find_opt st.entries (candidate_key cand) with
  | Some v ->
      t.hits <- t.hits + 1;
      Obs.add_int "cache.hits" 1;
      Some v
  | None ->
      t.misses <- t.misses + 1;
      Obs.add_int "cache.misses" 1;
      None

let record t sc cand verdict =
  let st = scope_state t sc in
  let key = candidate_key cand in
  if Hashtbl.find_opt st.entries key <> Some verdict then begin
    Hashtbl.replace st.entries key verdict;
    st.dirty <- true;
    t.stored <- t.stored + 1;
    Obs.add_int "cache.stored" 1
  end

let flush t =
  match t.dir with
  | None -> ()
  | Some d ->
      with_dir_lock d (fun () ->
          Hashtbl.iter
            (fun sc st ->
              if st.dirty then begin
                let path = Option.get (file_of t sc) in
                (* pid-unique tmp name: concurrent writers (serialized
                   by the lock, but also any process that bypasses it)
                   never build in each other's tmp file *)
                let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
                let oc = open_out tmp in
                Printf.fprintf oc "%s %s\n" header sc;
                Hashtbl.iter
                  (fun key v -> output_string oc (entry_line v key ^ "\n"))
                  st.entries;
                Printf.fprintf oc "end %d\n" (Hashtbl.length st.entries);
                close_out oc;
                Sys.rename tmp path;
                ignore (Chaos.cache_truncate ~path);
                st.dirty <- false
              end)
            t.scopes)
