(** Minimal dependency-free JSON codec: the one reader and the one
    printer every renofs file format goes through.

    The reader accepts standard JSON (objects, arrays, strings with the
    common escapes, numbers, booleans, null).  The printer writes a
    {!json} tree in one of two layouts over one writer; schemas build
    trees and never format JSON text themselves.  It is dependency-free
    so layers below the workload library (trace, metrics, fault
    schedules) share it. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string

val parse_exn : string -> json
(** Raises {!Bad} with a message carrying line, column and byte offset
    on malformed input. *)

val parse : string -> (json, string) result

(** {2 Printer}

    Numbers print as the shortest decimal that round-trips: an integer
    below 1e15 as [%.0f], anything else as the first of
    [%.15g]/[%.16g]/[%.17g] that reads back equal (NaN and infinities,
    which JSON lacks, as [null]).  Strings escape the double quote,
    backslash, newline, carriage return and tab by name, other bytes
    below 0x20 as [\u00XX], and pass bytes from 0x80 through raw.
    Members keep
    their list order.  So [parse (compact j) = Ok j] and
    [parse (document j) = Ok j] for every tree of finite numbers. *)

val compact : json -> string
(** One line, no spaces, no trailing newline: JSONL records, and the
    numbers of CSV files and diff reports ([compact (Num v)]). *)

val document : json -> string
(** A file: a container holding any container puts one element per
    line, indented two spaces per depth; a container of scalars stays
    on one line; a trailing newline ends the document. *)

(** {2 Accessors}

    Each raises {!Bad} naming [ctx] when the shape is wrong — suitable
    for schema readers that want one error message out. *)

val member : ctx:string -> string -> (string * json) list -> json
(** [member ~ctx name obj] is the field, or raises "[ctx]: missing
    field [name]". *)

val member_opt : string -> (string * json) list -> json option
val str : ctx:string -> json -> string
val num : ctx:string -> json -> float
val arr : ctx:string -> json -> json list
val obj : ctx:string -> json -> (string * json) list

(** {2 Located file/line decoding}

    The one place [path:] / [path:line:] error prefixes are built, so
    the bench, fault, metrics and scenario loaders report malformed
    input identically. *)

val read_file : string -> (string, string) result
(** Whole-file read; [Error] carries the [Sys_error] message. *)

val load_file : string -> (json, string) result
(** {!read_file} + {!parse}; parse failures come back as
    ["path: parse error: ..."] with the line/column already inside. *)

val decode_file : string -> (json -> 'a) -> ('a, string) result
(** {!load_file}, then run a decoder that may raise {!Bad}; decoder
    failures come back as ["path: ..."]. *)

val decode_line :
  path:string -> lineno:int -> string -> (json -> 'a) -> ('a, string) result
(** Parse and decode one JSONL line; both parse and decoder failures
    come back as ["path:line: ..."]. *)
