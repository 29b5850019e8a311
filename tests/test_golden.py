"""Golden certificates: construction output pinned byte for byte.

Each case pins the sha256 of the JSON certificate record that
`torusham construct` prints.  A refactor of the word, cycle or path layers
must leave every digest unchanged.  The cases cover odd m and even m, k from
3 to 8, non-zero starts, and even-m targets whose first odd coordinate is
not coordinate 0 (the transposition-plus-relabel branch).  Every case has at
most 20k vertices.
"""

import hashlib
import json

import pytest

from torusham import hamiltonian_path
from torusham.cli import certificate_record

TINY = (
    '{"moduli": [3, 3, 3], "from": [0, 0, 0], "to": [2, 0, 0], "word": {"nested": '
    '"(x1 x2 x1^2 x2 x1^2 x3 x1^2 x2 x1^2 x2 x1^2 x3 x1^2 x2 x1^2 x2 x1^2 x3)"}, '
    '"verified": true, "length": 26}'
)

# (m, k, u, v, sha256 of json.dumps(certificate_record(...)))
GOLDEN = [
    (3, 3, (0, 0, 0), (2, 0, 0), "1c9b3362880c776cd9d89d7c1bf05d655286efa706aa69d11dc5fea9638cbbd6"),
    (3, 4, (0, 0, 0, 0), (1, 1, 0, 0), "742a8703248431887a82dae567ed2747819c0278bc9cf1fed80b3990a810d3f2"),
    (3, 6, (1, 0, 2, 0, 1, 0), (1, 2, 2, 0, 1, 0), "d013fe06df3b8c37dbe5e1a555df40d62020114ce41978373f056097b032bcbb"),
    (3, 8, (0,) * 8, (0, 0, 0, 0, 0, 0, 0, 2), "4ff92f825b07b1f31179be131507b6bf6ebe3a0bd4181289ae3f6672b95059dc"),
    (5, 3, (0, 0, 0), (1, 2, 1), "a2008309f85b79795d1a6cee2929a8dde609963a7df1677fdf999ee9f740acea"),
    (5, 4, (1, 2, 3, 4), (1, 3, 4, 1), "cb53e3e7f78e987b028838c2f5f2cf66fce011c1ca8a5de12bb9a46b672d4917"),
    (5, 6, (0,) * 6, (0, 0, 0, 0, 0, 4), "e38e6a25a7e3f110fad0d51891702483fafd55b7010779e6d4f8a4198f4f9027"),
    (7, 3, (0, 0, 0), (3, 3, 0), "2f86eb27702ce8c246426b7df5e001d411d085de5a9453a8ea3db3ecc9ab0c63"),
    (7, 4, (6, 0, 1, 0), (6, 0, 6, 1), "2001839206f6963f6412b2121c0258d742c603d0672221eee5b40fc4c421bdb4"),
    (9, 3, (0, 0, 0), (0, 8, 0), "6d7b53cf9df3c8dc14264a0b78d3f6fdb16a47186300a07ec283eacb2a15a41d"),
    (9, 4, (2, 2, 2, 2), (2, 6, 6, 2), "e18bcd017f3991eec09779c695a037958fc5e2a6fb359f2d7c943235e38073e7"),
    (2, 3, (0, 0, 0), (0, 1, 0), "580dc4bd2e6eab9aef6745d2720d15cf733b00814f85c45c5ccf4ea1d8cd84b7"),
    (2, 5, (1, 0, 1, 0, 0), (1, 0, 1, 1, 0), "01dfaeeb2e0cc41764a516f3caba941dd86e10fe7da63403872a0ff15279c1ed"),
    (2, 8, (0,) * 8, (0, 0, 0, 0, 0, 0, 0, 1), "219ea9719d5f11a49fd94f645879fb47c6c73941dc29588bdb9cf7bfd864e347"),
    (4, 3, (0, 0, 0), (0, 3, 0), "2473c86c4afb6cf9c295e61cf698cb02e4b2faac77dd25301c7c08c80c08d309"),
    (4, 4, (0, 0, 0, 0), (1, 2, 0, 0), "5ab0b3b3fe410d92b7709c483e27e9e1c852bfdcc227e633067f9e0ce9089d95"),
    (4, 5, (0,) * 5, (2, 0, 0, 1, 0), "25ee147f2f544adf482cad82b15aa4c9affeddde27449a0e2ba94ed254257409"),
    (4, 7, (3, 0, 0, 0, 0, 0, 1), (3, 0, 0, 0, 0, 3, 1), "9139e3ebe8918b151e7e377e3fe28487173d7e81b07b45f1f357f64024be1a45"),
    (6, 3, (0, 0, 0), (2, 0, 3), "53a0077be140ac465c8374fe345ecb81a306ecdea95dec9cb40b912410b2ca7c"),
    (6, 4, (0, 0, 0, 0), (5, 0, 0, 0), "b237ab8e264647e8df5734bfbdc773dd76a552f7dce80e7ffc8a93a600d279bf"),
    (6, 5, (1, 2, 3, 4, 5), (1, 4, 3, 1, 5), "7c638c3c1415d824736f96be141317a2012c71736ea90db503460bbe96491539"),
    (10, 3, (0, 0, 0), (4, 5, 0), "0f25ead2d6a028326965f3b97b06cc8fa27eb1c0f6e74f1603c48b65b9ea9390"),
    (10, 4, (0, 0, 0, 0), (0, 0, 0, 9), "f9fb38947ca142264d581dee0d0b77e32c1340c0f404f2a61ac72d798c03753c"),
]


def _record_text(m, k, u, v) -> str:
    return json.dumps(certificate_record(hamiltonian_path(m, k, u, v)))


def test_golden_tiny_certificate_text():
    assert _record_text(3, 3, (0, 0, 0), (2, 0, 0)) == TINY


@pytest.mark.parametrize(
    "m, k, u, v, digest", GOLDEN, ids=[f"m{c[0]}k{c[1]}-{i}" for i, c in enumerate(GOLDEN)]
)
def test_golden_certificate_digest(m, k, u, v, digest):
    text = _record_text(m, k, u, v)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
