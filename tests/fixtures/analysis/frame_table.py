"""Seeded-bug fixture: a client sends two frame kinds, and the server's
frame table has an entry for only one of them.  Never imported; parsed
by the checker only.
"""


class Client:
    def ping(self):
        return self._request(("ping", 1))

    def orphan(self):
        return self._request(("orphan", 2))


class Server:
    def _on_ping(self, link):
        return True

    _FRAMES = {"ping": _on_ping}
