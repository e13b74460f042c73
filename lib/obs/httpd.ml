(* Minimal embedded HTTP/1.0 server — just enough protocol for a
   Prometheus scrape or a curl: GET only, Connection: close, one
   handler thread per connection. No dependencies beyond unix +
   threads, by design: this runs inside the prover. Connections are
   capped (503 past the cap) and carry a read deadline (408 on a
   stalled client) so a scrape storm or a slowloris cannot pile up
   unbounded threads. *)

type response = { status : int; content_type : string; body : string }

type request = { path : string; params : (string * string) list }

type handler = request -> response option

type t = {
  sock : Unix.file_descr;
  port : int;
  stopping : bool Atomic.t;
  conns : int Atomic.t;
  accept_thread : Thread.t;
}

let reason_of = function
  | 200 -> "OK"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Status"

let percent_decode s =
  let n = String.length s in
  let hex = function
    | '0' .. '9' as c -> Char.code c - Char.code '0'
    | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
    | _ -> -1
  in
  let b = Buffer.create n in
  let rec go i =
    if i < n then (
      (match s.[i] with
      | '+' ->
        Buffer.add_char b ' ';
        go (i + 1)
      | '%' when i + 2 < n && hex s.[i + 1] >= 0 && hex s.[i + 2] >= 0 ->
        Buffer.add_char b (Char.chr ((hex s.[i + 1] * 16) + hex s.[i + 2]));
        go (i + 3)
      | c ->
        Buffer.add_char b c;
        go (i + 1)))
  in
  go 0;
  Buffer.contents b

let request_of_target target =
  match String.index_opt target '?' with
  | None -> { path = target; params = [] }
  | Some i ->
    let path = String.sub target 0 i in
    let qs = String.sub target (i + 1) (String.length target - i - 1) in
    let params =
      String.split_on_char '&' qs
      |> List.filter (fun kv -> kv <> "")
      |> List.map (fun kv ->
             match String.index_opt kv '=' with
             | None -> (percent_decode kv, "")
             | Some j ->
               ( percent_decode (String.sub kv 0 j),
                 percent_decode
                   (String.sub kv (j + 1) (String.length kv - j - 1)) ))
    in
    { path; params }

let param req name = List.assoc_opt name req.params

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let respond fd { status; content_type; body } =
  write_all fd
    (Printf.sprintf
       "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
       status (reason_of status) content_type (String.length body) body)

let not_found path =
  {
    status = 404;
    content_type = "application/json";
    body = Printf.sprintf {|{"error":"not found","path":%s}|} (Zkflow_util.Jsonx.quote path);
  }

let timeout_response =
  {
    status = 408;
    content_type = "application/json";
    body = {|{"error":"request timeout"}|};
  }

let saturated_response =
  {
    status = 503;
    content_type = "application/json";
    body = {|{"error":"server saturated"}|};
  }

exception Read_deadline

(* Read up to the end of the request headers (CRLFCRLF); we only need
   the request line, the rest is drained and ignored. Raises
   {!Read_deadline} if the socket's SO_RCVTIMEO expires mid-read. *)
let read_request fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 512 in
  let rec go () =
    if Buffer.length buf > 16384 then None
    else
      let seen = Buffer.contents buf in
      let done_ =
        let rec find i =
          i + 3 < String.length seen
          && ((seen.[i] = '\r' && seen.[i + 1] = '\n' && seen.[i + 2] = '\r'
               && seen.[i + 3] = '\n')
             || find (i + 1))
        in
        find 0
        || (* tolerate bare-LF clients *)
        (let rec find2 i =
           i + 1 < String.length seen
           && ((seen.[i] = '\n' && seen.[i + 1] = '\n') || find2 (i + 1))
         in
         find2 0)
      in
      if done_ then Some seen
      else
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          (* SO_RCVTIMEO expired: the client stalled mid-request. *)
          raise Read_deadline
  in
  go ()

(* [release] frees the connection slot before the close that ends the
   client's read: a client holding its whole response can then always
   connect again without meeting a 503. *)
let handle_conn ~release handler fd =
  Fun.protect
    ~finally:(fun () ->
      release ();
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match read_request fd with
      | exception Read_deadline ->
        (try respond fd timeout_response with Unix.Unix_error _ -> ())
      | None -> ()
      | Some req ->
        let line =
          match String.index_opt req '\n' with
          | Some i -> String.trim (String.sub req 0 i)
          | None -> String.trim req
        in
        let resp =
          match String.split_on_char ' ' line with
          | meth :: _ when meth <> "GET" ->
            {
              status = 405;
              content_type = "application/json";
              body = {|{"error":"method not allowed"}|};
            }
          | _ :: target :: _ ->
            let request = request_of_target target in
            (try Option.value ~default:(not_found request.path) (handler request)
             with e ->
               {
                 status = 500;
                 content_type = "application/json";
                 body =
                   Printf.sprintf {|{"error":"handler raised","detail":%s}|}
                     (Zkflow_util.Jsonx.quote (Printexc.to_string e));
               })
          | _ -> not_found "/"
        in
        (try respond fd resp with Unix.Unix_error _ -> ()))

let start ?(host = "127.0.0.1") ?(max_conns = 64) ?(read_timeout_s = 10.) ~port
    handler =
  (* A peer closing mid-write must not kill the prover. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match
    let addr = Unix.inet_addr_of_string host in
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt sock Unix.SO_REUSEADDR true;
    (try Unix.bind sock (Unix.ADDR_INET (addr, port))
     with e ->
       Unix.close sock;
       raise e);
    Unix.listen sock 16;
    let port =
      match Unix.getsockname sock with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> port
    in
    (sock, port)
  with
  | exception Unix.Unix_error (err, _, _) ->
    Error
      (Printf.sprintf "listen %s:%d: %s" host port (Unix.error_message err))
  | exception Failure _ -> Error (Printf.sprintf "listen: bad host %S" host)
  | sock, port ->
    let stopping = Atomic.make false in
    let conns = Atomic.make 0 in
    let accept_thread =
      Thread.create
        (fun () ->
          let rec loop () =
            match Unix.accept sock with
            | fd, _ ->
              if Atomic.fetch_and_add conns 1 >= max_conns then (
                (* Past the cap: shed the connection right here in the
                   accept thread — never spawn an unbounded thread.
                   Lingering close: drain whatever request bytes are in
                   flight (briefly — 100 ms cap) before closing, else
                   the close turns into an RST and the client never
                   sees the 503. *)
                Atomic.decr conns;
                (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.1
                 with Unix.Unix_error _ -> ());
                (try respond fd saturated_response with Unix.Unix_error _ -> ());
                (try Unix.shutdown fd Unix.SHUTDOWN_SEND
                 with Unix.Unix_error _ -> ());
                (let b = Bytes.create 512 in
                 let rec drain () =
                   match Unix.read fd b 0 (Bytes.length b) with
                   | 0 -> ()
                   | _ -> drain ()
                   | exception Unix.Unix_error _ -> ()
                 in
                 drain ());
                (try Unix.close fd with Unix.Unix_error _ -> ()))
              else (
                if read_timeout_s > 0. then (
                  try Unix.setsockopt_float fd Unix.SO_RCVTIMEO read_timeout_s
                  with Unix.Unix_error _ -> ());
                ignore
                  (Thread.create
                     (fun () ->
                       handle_conn ~release:(fun () -> Atomic.decr conns) handler fd)
                     ()));
              loop ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
            | exception Unix.Unix_error _ ->
              (* The listening socket was closed under us: shutdown. *)
              if not (Atomic.get stopping) then () else ()
          in
          loop ())
        ()
    in
    Ok { sock; port; stopping; conns; accept_thread }

let port t = t.port

let stop t =
  Atomic.set t.stopping true;
  (* shutdown before close: a close alone does not wake a thread
     blocked in accept(2) on Linux, and the join would hang *)
  (try Unix.shutdown t.sock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (try Unix.close t.sock with Unix.Unix_error _ -> ());
  Thread.join t.accept_thread
