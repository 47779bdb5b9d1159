(* The shared JSON codec: the printer's two layouts read back to the
   same tree, numbers print as the shortest round-tripping decimal,
   strings escape exactly the bytes JSON requires, and the document
   layout keeps one element per line wherever a container nests. *)

module Json = Renofs_json.Json

(* Structural equality that tells -0 from 0: the printer must keep the
   sign of zero, which [=] on floats would not notice. *)
let rec equal a b =
  match (a, b) with
  | Json.Num x, Json.Num y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Arr l, Arr m -> List.length l = List.length m && List.for_all2 equal l m
  | Obj l, Obj m ->
      List.length l = List.length m
      && List.for_all2 (fun (k, v) (k', v') -> String.equal k k' && equal v v') l m
  | _ -> a = b

(* Strings mixing the bytes the escaper treats specially: quotes,
   backslashes, every control character, and raw bytes >= 0x80. *)
let gen_string =
  let open QCheck.Gen in
  let byte =
    frequency
      [
        (4, char_range 'a' 'z');
        (2, oneofl [ '"'; '\\'; '/'; '\n'; '\r'; '\t'; ' ' ]);
        (2, map Char.chr (int_range 0 0x1f));
        (2, map Char.chr (int_range 0x80 0xff));
      ]
  in
  string_size ~gen:byte (int_bound 12)

(* Finite floats across the range the schemas can carry: integers,
   negative zero, and mantissas scaled from 1e-300 to 1e300. *)
let gen_float =
  let open QCheck.Gen in
  frequency
    [
      (1, oneofl [ 0.0; -0.0; 1e15; -1e15; 1e-300; 1e300; 0.1 +. 0.2 ]);
      (2, map float_of_int (int_range (-1_000_000) 1_000_000));
      ( 5,
        map3
          (fun m e neg -> (if neg then -1.0 else 1.0) *. m *. (10.0 ** float_of_int e))
          (float_range 1.0 10.0) (int_range (-300) 299) bool );
    ]

let gen_json =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         let scalar =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun v -> Json.Num v) gen_float;
               map (fun s -> Json.Str s) gen_string;
             ]
         in
         if n <= 0 then scalar
         else
           let sub = self (n / 4) in
           frequency
             [
               (2, scalar);
               (1, map (fun l -> Json.Arr l) (list_size (int_bound 5) sub));
               (1, map (fun l -> Json.Obj l) (list_size (int_bound 5) (pair gen_string sub)));
             ])

let arb_json = QCheck.make ~print:Json.compact gen_json

let roundtrips print j =
  match Json.parse (print j) with
  | Ok back -> equal back j
  | Error msg -> QCheck.Test.fail_reportf "%s: %s" msg (print j)

let prop_compact =
  QCheck.Test.make ~name:"parse (compact j) = j" ~count:500 arb_json
    (roundtrips Json.compact)

let prop_document =
  QCheck.Test.make ~name:"parse (document j) = j" ~count:500 arb_json
    (roundtrips Json.document)

let test_numbers () =
  List.iter
    (fun (v, want) -> Alcotest.(check string) want want (Json.compact (Num v)))
    [
      (5.0, "5");
      (-0.0, "-0");
      (1e15, "1e+15");
      (0.5, "0.5");
      (0.1 +. 0.2, "0.30000000000000004");
      (0.1234567890123456, "0.1234567890123456");
      (Float.nan, "null");
      (Float.infinity, "null");
    ]

let test_escapes () =
  Alcotest.(check string) "escaper"
    ({|"q\" b\\ n\n r\r t\t c\u0001 caf|} ^ "\xc3\xa9\"")
    (Json.compact (Str "q\" b\\ n\n r\r t\t c\x01 caf\xc3\xa9"))

(* The document rule: containers of scalars stay on one line; any
   container holding a container breaks one element per line. *)
let test_document_layout () =
  let doc =
    Json.Obj
      [
        ("schema", Str "x/1");
        ("jobs", Num 2.0);
        ("header", Arr [ Str "a"; Str "b" ]);
        ("rows", Arr [ Arr [ Obj [ ("v", Num 1.0) ] ]; Arr [] ]);
        ("empty", Obj []);
      ]
  in
  Alcotest.(check string) "layout"
    {|{
  "schema":"x/1",
  "jobs":2,
  "header":["a","b"],
  "rows":[
    [
      {"v":1}
    ],
    []
  ],
  "empty":{}
}
|}
    (Json.document doc);
  Alcotest.(check string) "compact" {|{"a":[1,{"b":[]}]}|}
    (Json.compact (Obj [ ("a", Arr [ Num 1.0; Obj [ ("b", Arr []) ] ]) ]))

let () =
  Alcotest.run "json"
    [
      ( "printer",
        [
          Alcotest.test_case "numbers" `Quick test_numbers;
          Alcotest.test_case "escapes" `Quick test_escapes;
          Alcotest.test_case "document layout" `Quick test_document_layout;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_compact; prop_document ]);
    ]
