"""A minimal LSP client for `wap serve` over stdio: framed JSON-RPC out,
a reader thread that files responses by id and keeps the latest
diagnostics published for each document."""

import json
import os
import queue
import subprocess
import threading


class Daemon:
    def __init__(self, argv):
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL)
        self.responses = queue.Queue()
        self.diagnostics = {}
        self.next_id = 1
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        f = self.proc.stdout
        try:
            while True:
                length = None
                while True:
                    line = f.readline()
                    if not line:
                        return
                    if line in (b"\r\n", b"\n"):
                        break
                    name, _, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                msg = json.loads(f.read(length))
                if "id" in msg:
                    self.responses.put(msg)
                elif msg.get("method") == "textDocument/publishDiagnostics":
                    p = msg["params"]
                    self.diagnostics[p["uri"]] = json.dumps(
                        p["diagnostics"], sort_keys=True)
        finally:
            self.responses.put(None)

    def send(self, method, params, request=False):
        msg = {"jsonrpc": "2.0", "method": method, "params": params}
        if request:
            msg["id"] = self.next_id
            self.next_id += 1
        body = json.dumps(msg).encode()
        self.proc.stdin.write(b"Content-Length: %d\r\n\r\n" % len(body) + body)
        self.proc.stdin.flush()
        return msg.get("id")

    def request(self, method, params, timeout=120):
        """Send a request and wait for its response (None if the daemon
        died or answered with an error)."""
        rid = self.send(method, params, request=True)
        while True:
            msg = self.responses.get(timeout=timeout)
            if msg is None:  # the daemon closed its output
                self.responses.put(None)
                return None
            if msg.get("id") == rid:
                return None if "error" in msg else msg

    def code_action(self, uri, line):
        pos = {"line": line, "character": 0}
        r = self.request("textDocument/codeAction", {
            "textDocument": {"uri": uri},
            "range": {"start": pos, "end": pos},
            "context": {"diagnostics": []}})
        return r is not None and isinstance(r.get("result"), list)

    def close(self):
        """Shut down and reap the daemon; returns (exit code, peak RSS
        in MB)."""
        try:
            self.request("shutdown", {}, timeout=60)
            self.send("exit", {})
            self.proc.stdin.close()
        except (OSError, ValueError, queue.Empty):
            self.proc.kill()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.reader.join(timeout=10)
        self.proc.stdout.close()
        return self.proc.returncode, usage.ru_maxrss / 1024.0


def uri_of(path):
    return "file:///vfront/" + os.path.basename(path)
