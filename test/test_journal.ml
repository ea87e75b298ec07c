(* Unit tests for the crash-safe run journal: round-trip replay,
   digest pinning, and torn-tail truncation.

   The journal is the write-ahead log behind `pdat reduce --resume`;
   these tests exercise it directly, below the pipeline, so the
   corruption cases can be constructed byte-exactly. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let rec rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then rm_rf p else Sys.remove p)
      (Sys.readdir dir);
    Unix.rmdir dir
  end

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pdat_journal_%d_%d" (Unix.getpid ())
         (Random.int 100000))
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let digest = String.make 32 'a'

let journal_file dir = Filename.concat dir "journal.jsonl"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let append_raw path s =
  let oc = open_out_gen [ Open_append; Open_wronly ] 0o644 path in
  output_string oc s;
  close_out oc

let write_sample dir =
  let j = Pdat.Journal.create ~dir ~digest ~label:"test-run" in
  Pdat.Journal.record_stage j ~name:"mine" ~items:[ "C3:0"; "C7:1" ];
  Pdat.Journal.record_stage j ~name:"refine" ~items:[ "C3:0" ];
  j

(* A proof-shard checkpoint, as journals written while the prover could
   fork workers hold them: CRC-framed like every other record, but of a
   type nothing reads any more. *)
let shard_record =
  let body = "\"type\":\"shard\",\"fp\":\"f00d\",\"proved\":[\"C3:0\"]}" in
  Printf.sprintf "{\"crc\":\"%s\",%s\n" (Engine.Checksum.crc32_hex body) body

let test_roundtrip () =
  with_temp_dir (fun dir ->
      Pdat.Journal.close (write_sample dir);
      let j, _ = Pdat.Journal.resume ~dir ~digest in
      Pdat.Journal.record_stage j ~name:"prove" ~items:[ "C3:0" ];
      Pdat.Journal.record_end j ~ok:true;
      Pdat.Journal.close j;
      let j2, r = Pdat.Journal.resume ~dir ~digest in
      Pdat.Journal.close j2;
      check_int "no lines dropped" 0 r.Pdat.Journal.r_dropped_lines;
      check "stages in order" true
        (List.map fst r.Pdat.Journal.r_stages = [ "mine"; "refine"; "prove" ]);
      check "stage items survive" true
        (List.assoc "mine" r.Pdat.Journal.r_stages = [ "C3:0"; "C7:1" ]))

let test_digest_mismatch () =
  with_temp_dir (fun dir ->
      Pdat.Journal.close (write_sample dir);
      match Pdat.Journal.resume ~dir ~digest:(String.make 32 'b') with
      | _ -> Alcotest.fail "resume accepted a foreign journal"
      | exception Pdat.Journal.Mismatch _ -> ())

let test_missing_journal () =
  with_temp_dir (fun dir ->
      ignore (Sys.command (Printf.sprintf "mkdir -p %s" (Filename.quote dir)));
      match Pdat.Journal.resume ~dir ~digest with
      | _ -> Alcotest.fail "resume invented a journal"
      | exception Pdat.Journal.Mismatch _ -> ())

(* A damaged tail is dropped and truncated away, and the journal stays
   appendable: a crash mid-write leaves half a record with no trailing
   newline; a shard checkpoint is a valid line that no reader accepts,
   so its run re-proves on resume. *)
let test_torn_tail_truncated () =
  List.iter
    (fun (what, tail) ->
      with_temp_dir (fun dir ->
          Pdat.Journal.close (write_sample dir);
          let path = journal_file dir in
          let intact = read_file path in
          append_raw path tail;
          let j, r = Pdat.Journal.resume ~dir ~digest in
          check_int (what ^ " dropped") 1 r.Pdat.Journal.r_dropped_lines;
          check "valid prefix fully replayed" true
            (List.map fst r.Pdat.Journal.r_stages = [ "mine"; "refine" ]);
          check "file truncated back to the valid prefix" true
            (read_file path = intact);
          (* the resumed journal must still be appendable and replayable *)
          Pdat.Journal.record_stage j ~name:"prove" ~items:[];
          Pdat.Journal.close j;
          let j2, r2 = Pdat.Journal.resume ~dir ~digest in
          Pdat.Journal.close j2;
          check "append after truncation replays" true
            (List.map fst r2.Pdat.Journal.r_stages
            = [ "mine"; "refine"; "prove" ])))
    [ ("torn line", "{\"crc\":\"0000"); ("shard record", shard_record) ]

let test_unterminated_valid_line () =
  with_temp_dir (fun dir ->
      Pdat.Journal.close (write_sample dir);
      let path = journal_file dir in
      (* chop the final newline: the last record is CRC-valid but
         unterminated, so an append would glue onto it — it must be
         treated as torn and truncated away *)
      let s = read_file path in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd (String.length s - 1);
      Unix.close fd;
      let j, r = Pdat.Journal.resume ~dir ~digest in
      Pdat.Journal.close j;
      check_int "unterminated line dropped" 1 r.Pdat.Journal.r_dropped_lines;
      check "its stage is gone" true
        (List.map fst r.Pdat.Journal.r_stages = [ "mine" ]))

let test_corrupt_middle_drops_suffix () =
  with_temp_dir (fun dir ->
      Pdat.Journal.close (write_sample dir);
      let path = journal_file dir in
      let s = read_file path in
      (* flip one byte inside the second record's body *)
      let lines = String.split_on_char '\n' s in
      let mutated =
        String.concat "\n"
          (List.mapi
             (fun i line ->
               if i = 1 && String.length line > 20 then begin
                 let b = Bytes.of_string line in
                 Bytes.set b 20
                   (if Bytes.get b 20 = 'x' then 'y' else 'x');
                 Bytes.to_string b
               end
               else line)
             lines)
      in
      let oc = open_out_bin path in
      output_string oc mutated;
      close_out oc;
      let j, r = Pdat.Journal.resume ~dir ~digest in
      Pdat.Journal.close j;
      (* replay stops at the first bad CRC: only the header survives *)
      check "suffix after the corrupt record dropped" true
        (r.Pdat.Journal.r_dropped_lines >= 1);
      check "stages after the damage are not replayed" true
        (List.length r.Pdat.Journal.r_stages < 3))

let () =
  Random.self_init ();
  Alcotest.run "journal"
    [
      ( "journal",
        [
          Alcotest.test_case "create/record/resume round-trip" `Quick
            test_roundtrip;
          Alcotest.test_case "foreign digest refused" `Quick
            test_digest_mismatch;
          Alcotest.test_case "missing journal refused" `Quick
            test_missing_journal;
          Alcotest.test_case "torn tail truncated, append continues" `Quick
            test_torn_tail_truncated;
          Alcotest.test_case "CRC-valid but unterminated tail dropped" `Quick
            test_unterminated_valid_line;
          Alcotest.test_case "corrupt middle record drops the suffix" `Quick
            test_corrupt_middle_drops_suffix;
        ] );
    ]
