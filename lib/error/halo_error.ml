type site = {
  op : string;
  var : int option;
  level : int option;
  backend : string option;
}

let site ?var ?level ?backend op = { op; var; level; backend }

let site_to_string s =
  let b = Buffer.create 32 in
  (match s.backend with
   | Some n ->
     Buffer.add_string b n;
     Buffer.add_char b '.'
   | None -> ());
  Buffer.add_string b s.op;
  (match s.var with
   | Some v -> Buffer.add_string b (Printf.sprintf " %%%d" v)
   | None -> ());
  (match s.level with
   | Some l -> Buffer.add_string b (Printf.sprintf " @L%d" l)
   | None -> ());
  Buffer.contents b

exception Backend_error of { site : site; reason : string }
exception Interp_error of { site : site option; reason : string }
exception Transient of { site : site; index : int; attempt : int }
exception Bootstrap_failure of { site : site; index : int; attempt : int }

exception Retry_exhausted of {
  site : site;
  attempts : int;
  iteration : int option;
}

exception Deadline_exceeded of {
  site : site;
  now_us : int;
  deadline_us : int;
}

exception Persist_error of {
  path : string option;
  offset : int option;
  expected : string option;
  got : string option;
  reason : string;
}

let persist_error ?path ?offset ?expected ?got fmt =
  Printf.ksprintf
    (fun reason -> raise (Persist_error { path; offset; expected; got; reason }))
    fmt

let is_transient = function
  | Transient _ | Bootstrap_failure _ -> true
  | _ -> false

let with_detail ?expected ?got reason =
  match (expected, got) with
  | Some e, Some g -> Printf.sprintf "%s (expected %s, got %s)" reason e g
  | Some e, None -> Printf.sprintf "%s (expected %s)" reason e
  | None, Some g -> Printf.sprintf "%s (got %s)" reason g
  | None, None -> reason

let describe = function
  | Backend_error { site; reason } ->
    Some
      (Printf.sprintf "backend error at %s: %s" (site_to_string site) reason)
  | Interp_error { site = Some s; reason } ->
    Some (Printf.sprintf "runtime error at %s: %s" (site_to_string s) reason)
  | Interp_error { site = None; reason } ->
    Some (Printf.sprintf "runtime error: %s" reason)
  | Transient { site; index; attempt } ->
    Some
      (Printf.sprintf "transient fault at %s (op #%d, fault %d at this op)"
         (site_to_string site) index attempt)
  | Bootstrap_failure { site; index; attempt } ->
    Some
      (Printf.sprintf "bootstrap failure at %s (op #%d, fault %d at this op)"
         (site_to_string site) index attempt)
  | Retry_exhausted { site; attempts; iteration } ->
    Some
      (Printf.sprintf "retry budget exhausted at %s after %d attempt%s%s"
         (site_to_string site) attempts
         (if attempts = 1 then "" else "s")
         (match iteration with
          | Some i -> Printf.sprintf " (loop iteration %d)" i
          | None -> ""))
  | Deadline_exceeded { site; now_us; deadline_us } ->
    Some
      (Printf.sprintf
         "deadline exceeded at %s: virtual time %dus past the %dus budget"
         (site_to_string site) now_us deadline_us)
  | Persist_error { path; offset; expected; got; reason } ->
    let b = Buffer.create 64 in
    Buffer.add_string b "persist error";
    (match path with
     | Some p -> Buffer.add_string b (Printf.sprintf " in %s" p)
     | None -> ());
    (match offset with
     | Some o -> Buffer.add_string b (Printf.sprintf " at byte %d" o)
     | None -> ());
    Buffer.add_string b (": " ^ with_detail ?expected ?got reason);
    Some (Buffer.contents b)
  | _ -> None

let to_string e =
  match describe e with Some s -> s | None -> Printexc.to_string e

let () = Printexc.register_printer describe
