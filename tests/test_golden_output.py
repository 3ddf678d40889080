"""Golden CLI output: ``bsrsat regions`` and ``bsrsat decide``, byte for byte.

The ``regions`` grid is pinned by SHA-256 of the complete output (slr at
arity 0-3 over the points {}, {0} and {0,1}; bd at arity 0-3 and kappa 1-2,
bounded and unbounded; both output forms), and three small cases in full so
that a change shows as a readable diff.  ``decide --output structured`` is
pinned for satisfiable clause sets in both modes, without the
``stat wall ms`` line; these fix the model table and the legend numbering.
The class streams ``decide`` grounds the timed encodings with are pinned by
SHA-256 too: their order drives DPLL and so the model it reports.  So is
the whole ``decide`` report, without ``stat wall ms``, on a slice of both
corpora of ``scripts/stream_digest.py --decide``.
"""

import contextlib
import hashlib
import io
import random

import pytest

from bsrsat.cli import main
from bsrsat.corpus import _raw_bd, _raw_slr, timed_instances
from bsrsat.decide import _contexts, _plan, decide
from bsrsat.normalize import normalize
from bsrsat.report import SolveStats, emit_result
from bsrsat.timed import default_lambda, encode_reachability


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(list(argv))
    assert rc == 0
    return buf.getvalue()


def regions_argv(key):
    if key[0] == "slr":
        _, arity, points, form = key
        extra = ["--points", points] if points else []
        return ["regions", "--mode", "slr", "--arity", str(arity), "--output", form, *extra]
    _, arity, kappa, bounded, form = key
    extra = ["--bounded"] if bounded else []
    return ["regions", "--mode", "bd", "--arity", str(arity), "--kappa", str(kappa),
            "--output", form, *extra]


BD_UNBOUNDED_K1_A1_STRUCTURED = """\
count: 7
class 0: rep -5/3 | below {0}
class 1: rep -2/3 | floors (-1) zero {} fr {0}
class 2: rep 1/3 | floors (0) zero {} fr {0}
class 3: rep -1 | floors (-1) zero {0} fr -
class 4: rep 0 | floors (0) zero {0} fr -
class 5: rep 1 | floors (1) zero {0} fr -
class 6: rep 7/3 | above {0}
"""

BD_BOUNDED_K1_A1_HUMAN = """\
7 classes
  #0    rep (-3/2)  floors (-2) zero {} fr {0}
  #1    rep (-1/2)  floors (-1) zero {} fr {0}
  #2    rep (1/2)  floors (0) zero {} fr {0}
  #3    rep (3/2)  floors (1) zero {} fr {0}
  #4    rep (-1)  floors (-1) zero {0} fr -
  #5    rep (0)  floors (0) zero {0} fr -
  #6    rep (1)  floors (1) zero {0} fr -
"""

SLR_P01_A2_STRUCTURED = """\
count: 31
class 0: rep -1 -1 | J0{0,1}
class 1: rep 0 0 | J1{0,1}
class 2: rep 1/2 1/2 | J2{0,1}
class 3: rep 1 1 | J3{0,1}
class 4: rep 2 2 | J4{0,1}
class 5: rep -2 -1 | J0{0} < J0{1}
class 6: rep -1 0 | J0{0} < J1{1}
class 7: rep -1 1/2 | J0{0} < J2{1}
class 8: rep -1 1 | J0{0} < J3{1}
class 9: rep -1 2 | J0{0} < J4{1}
class 10: rep 0 1/2 | J1{0} < J2{1}
class 11: rep 0 1 | J1{0} < J3{1}
class 12: rep 0 2 | J1{0} < J4{1}
class 13: rep 1/3 2/3 | J2{0} < J2{1}
class 14: rep 1/2 1 | J2{0} < J3{1}
class 15: rep 1/2 2 | J2{0} < J4{1}
class 16: rep 1 2 | J3{0} < J4{1}
class 17: rep 2 3 | J4{0} < J4{1}
class 18: rep -1 -2 | J0{1} < J0{0}
class 19: rep 0 -1 | J0{1} < J1{0}
class 20: rep 1/2 -1 | J0{1} < J2{0}
class 21: rep 1 -1 | J0{1} < J3{0}
class 22: rep 2 -1 | J0{1} < J4{0}
class 23: rep 1/2 0 | J1{1} < J2{0}
class 24: rep 1 0 | J1{1} < J3{0}
class 25: rep 2 0 | J1{1} < J4{0}
class 26: rep 2/3 1/3 | J2{1} < J2{0}
class 27: rep 1 1/2 | J2{1} < J3{0}
class 28: rep 2 1/2 | J2{1} < J4{0}
class 29: rep 2 1 | J3{1} < J4{0}
class 30: rep 3 2 | J4{1} < J4{0}
"""

SMALL_CASES = [
    (['--mode', 'bd', '--arity', '1', '--kappa', '1', '--output', 'structured'], BD_UNBOUNDED_K1_A1_STRUCTURED),
    (['--mode', 'bd', '--arity', '1', '--kappa', '1', '--bounded'], BD_BOUNDED_K1_A1_HUMAN),
    (['--mode', 'slr', '--arity', '2', '--points', '0,1', '--output', 'structured'], SLR_P01_A2_STRUCTURED),
]

REGION_DIGESTS = {
    ('slr', 0, '', 'human'): '1600b0d0237081dc92e9595348901150597598d624376168e54da8a5f4aa2265',
    ('slr', 0, '', 'structured'): '86ba9c463cb4b941ace67e6a03cac12386ef6fdd643598833d0936064f8cee8e',
    ('slr', 1, '', 'human'): 'a61a155020501089e45f98c051033251b9a6b27f69bbd90406cf14f19d5d319a',
    ('slr', 1, '', 'structured'): '640fd91d955bdb3bf8a3b9c770582aca3283635a475e48b80714315dae1aa76c',
    ('slr', 2, '', 'human'): '07b319194532256683013af647143c4123e732ba64b19b72fb55e8fdc119093c',
    ('slr', 2, '', 'structured'): '00b86ff0f7ca064b83cf29429c812d36c7f92a1ebd42c03d3723b9411c9c6225',
    ('slr', 3, '', 'human'): 'dacaae4a24666d0cea8e7ce9656339fec107390ede7524a2d55a3829d0ce8ec8',
    ('slr', 3, '', 'structured'): '8c61aee3494bd2ce29b261714d6b1c3f950dfbccd0e1221fdddd21675205546f',
    ('slr', 0, '0', 'human'): '1600b0d0237081dc92e9595348901150597598d624376168e54da8a5f4aa2265',
    ('slr', 0, '0', 'structured'): '86ba9c463cb4b941ace67e6a03cac12386ef6fdd643598833d0936064f8cee8e',
    ('slr', 1, '0', 'human'): 'beac6c0b5ff193559611207bf01836367e13c0ffec1888a3e7ced95f36c19eee',
    ('slr', 1, '0', 'structured'): 'ecc2ebec0c90204d91dfa464b0cb5ba007beedcf0f184c94b46594537b973085',
    ('slr', 2, '0', 'human'): '37444020b015bb90b0604ba8b2fd5d5adcef6807530bf5e7d0f91bb2a6b0b94d',
    ('slr', 2, '0', 'structured'): '5553e32c24ffa8e31fcc0873db82d36b4166798c1ffd3557b8158f9e7f08dd7f',
    ('slr', 3, '0', 'human'): '4761ac9923b12e84bdfcbb423357b8f1a459659dfc2043cfdc30c6084e4b3a14',
    ('slr', 3, '0', 'structured'): '52545eef1bf1ce7a7e3d1191ba35cf1163d11f2819f954116e72f2af3919a480',
    ('slr', 0, '0,1', 'human'): '1600b0d0237081dc92e9595348901150597598d624376168e54da8a5f4aa2265',
    ('slr', 0, '0,1', 'structured'): '86ba9c463cb4b941ace67e6a03cac12386ef6fdd643598833d0936064f8cee8e',
    ('slr', 1, '0,1', 'human'): 'c0ddbf03bf7d2db94fd31ee244bb6a1ffddd751a58b89c3999cb7ef35cd9375a',
    ('slr', 1, '0,1', 'structured'): '476984afaed48c2ef5917177670f836376025c1aa81210e0c50985221a6403a1',
    ('slr', 2, '0,1', 'human'): '6013de246f262b3815fb517846fd35dcaf687fb21779859d83285597d5256cd8',
    ('slr', 2, '0,1', 'structured'): '14cb189847f8f15cb7693e1377f20c45eaf2a49f9a01a4a21c2015025c00f68d',
    ('slr', 3, '0,1', 'human'): '5048c426006b3c08ffef4874145c4f6c0a51360dfe574849ea8ba615a052a471',
    ('slr', 3, '0,1', 'structured'): 'c511a39d08659461ed45b24f72e4995263de73102f32c8a764bde2a7520e26ca',
    ('bd', 0, 1, False, 'human'): '7d3145569fafdac0fcac3215e5a5a000c9c3b6c9b73354b3182c2e596bde51b3',
    ('bd', 0, 1, False, 'structured'): '63dc5d199f7cecc2864c9dd277c81f87bc22ba3c31e7cca31641eb4612e6ec5e',
    ('bd', 0, 1, True, 'human'): '7d3145569fafdac0fcac3215e5a5a000c9c3b6c9b73354b3182c2e596bde51b3',
    ('bd', 0, 1, True, 'structured'): '63dc5d199f7cecc2864c9dd277c81f87bc22ba3c31e7cca31641eb4612e6ec5e',
    ('bd', 1, 1, False, 'human'): '677dff7c64bde7d549b46f49aef1acd1eb494cb6c48d98503543eab45d89d9ab',
    ('bd', 1, 1, False, 'structured'): '1ea530707f788a5ac1b63e1b680fdcb85297e8ef41d0cb844a98a7c2d6b77031',
    ('bd', 1, 1, True, 'human'): '3dd34ad61a81e177ab6770c8d87488badc2e88a4b72333c582d908e744a52253',
    ('bd', 1, 1, True, 'structured'): 'af53e9bf5951cd0d738c927de02750adc5592204dd9bd5af38c41cba94bb340e',
    ('bd', 2, 1, False, 'human'): 'd2defdd8b604791158648df95fd6741ba89b241c78a1bd79e0f07685c4984429',
    ('bd', 2, 1, False, 'structured'): '279ac4dd1b7f57643cbc819f35ff7d90a14d04c3cc055726a2488c923d7eda76',
    ('bd', 2, 1, True, 'human'): 'c494dd5a826c9c301125f62d04853db979b5678243cc96329fbd654d8879fa38',
    ('bd', 2, 1, True, 'structured'): '7ee7ec76066725dca8bbaa2b25c7ce2f1d42d6036b40c113ed1b62c453f55e79',
    ('bd', 3, 1, False, 'human'): 'd6abda83d5d0167143423e6929b2acf45754d702e9adf3145c1da68a0d94216c',
    ('bd', 3, 1, False, 'structured'): 'bf0d94069a06946378578504994634941600ba6b406cf8c9fc235f8d3fc87a85',
    ('bd', 3, 1, True, 'human'): '7653139209d4bf0a784d0e7dbdda8fbbe7c50f758989474909eca346c23141da',
    ('bd', 3, 1, True, 'structured'): '581dc23de8e341d77ffa6da54ce94a0e0af094b4800db736acf4a6c754d509ce',
    ('bd', 0, 2, False, 'human'): '7d3145569fafdac0fcac3215e5a5a000c9c3b6c9b73354b3182c2e596bde51b3',
    ('bd', 0, 2, False, 'structured'): '63dc5d199f7cecc2864c9dd277c81f87bc22ba3c31e7cca31641eb4612e6ec5e',
    ('bd', 0, 2, True, 'human'): '7d3145569fafdac0fcac3215e5a5a000c9c3b6c9b73354b3182c2e596bde51b3',
    ('bd', 0, 2, True, 'structured'): '63dc5d199f7cecc2864c9dd277c81f87bc22ba3c31e7cca31641eb4612e6ec5e',
    ('bd', 1, 2, False, 'human'): 'e5b6e8444f4a460f6467cadddbcec3ad5c86d607bc7b9bed5679dec54a6e28e6',
    ('bd', 1, 2, False, 'structured'): '567a3a0667204e5f6e27e81efb652eddbc7548a0ce407bcd7023de55590e216f',
    ('bd', 1, 2, True, 'human'): 'badd11fd8af0e8bba70d43b2ac659b5f501cbf190cf84cc2a8e029bd27a7ae70',
    ('bd', 1, 2, True, 'structured'): 'a49defa34ec2a4f72d31515bbb29209a2cdb48f0e57c639ba717a0e0980211f8',
    ('bd', 2, 2, False, 'human'): '6336675a5836f3c7a1118b2cdde26a3d0ee0afc1026794eee657df88095de96f',
    ('bd', 2, 2, False, 'structured'): '05e04fc53430a537b7a5792252977199c88e8eac8763da301ed59465e082a6a4',
    ('bd', 2, 2, True, 'human'): '9003d6780fb96978054995b58942d1db483107f83e6e4dadf09c2403c97f7590',
    ('bd', 2, 2, True, 'structured'): 'd8c3a2e27ac4b54704452cd3f787e6bfc3bcbeb52ec930a63d254feeac2e2bea',
    ('bd', 3, 2, False, 'human'): '79981e148501fc46fa6c42339d9e1f989f28acf509caa7da08644fb97b2a2942',
    ('bd', 3, 2, False, 'structured'): 'f299f7d706dabb0c35d286411180902a452c110febb58767d184ce65b19a73d3',
    ('bd', 3, 2, True, 'human'): 'dbf5ea5d5bb022db0fe02c1e50e7cba558ea3278cf3e0986bc193f2106d26898',
    ('bd', 3, 2, True, 'structured'): '6c69a72e3806f806dae613d5aa8e2375917ac137594e41f3927535ccf619f746',
}

DECIDE_CASES = {
    'bd1': (
        'mode bd\npred P : S^1 R^1\nfreeconst a\nclause [x < 0] [] -> [P(a, x)]\nclause [y > 1] [P(a, y)] -> []\n',
        """\
status: sat
stat preorders: 0
stat candidates: 1
stat classes: 4
stat prop vars: 4
stat prop clauses: 4
stat decisions: 0
domain: a
fconst a: a
model: P (a) class#0 = false
model: P (a) class#1 = true
model: P (a) class#2 = true
model: P (a) class#3 = true
class#0 rep: (7/3)
class#1 rep: (-5/3)
class#2 rep: (-2/3)
class#3 rep: (-1)
""",
    ),
    'bd2': (
        'mode bd\npred P : S^1 R^2\nfreeconst a\nclause [x >= 0; x <= 2; y >= 0; y <= 2; x - y > 1] [] -> [P(a, x, y)]\nclause [x >= 0; x <= 2; y >= 0; y <= 2; x - y < 1] [P(a, x, y)] -> []\n',
        """\
status: sat
stat preorders: 0
stat candidates: 1
stat classes: 30
stat prop vars: 30
stat prop clauses: 30
stat decisions: 0
domain: a
fconst a: a
model: P (a) class#0 = false
model: P (a) class#1 = false
model: P (a) class#2 = false
model: P (a) class#3 = false
model: P (a) class#4 = false
model: P (a) class#5 = false
model: P (a) class#6 = false
model: P (a) class#7 = false
model: P (a) class#8 = false
model: P (a) class#9 = false
model: P (a) class#10 = false
model: P (a) class#11 = false
model: P (a) class#12 = false
model: P (a) class#13 = false
model: P (a) class#14 = false
model: P (a) class#15 = true
model: P (a) class#16 = false
model: P (a) class#17 = true
model: P (a) class#18 = false
model: P (a) class#19 = false
model: P (a) class#20 = false
model: P (a) class#21 = false
model: P (a) class#22 = false
model: P (a) class#23 = false
model: P (a) class#24 = false
model: P (a) class#25 = false
model: P (a) class#26 = true
model: P (a) class#27 = true
model: P (a) class#28 = false
model: P (a) class#29 = false
class#0 rep: (1/4, 1/2)
class#1 rep: (1/4, 1/4)
class#2 rep: (1/2, 1/4)
class#3 rep: (0, 1/4)
class#4 rep: (0, 0)
class#5 rep: (1/4, 0)
class#6 rep: (1/4, 3/2)
class#7 rep: (1/4, 5/4)
class#8 rep: (1/2, 5/4)
class#9 rep: (0, 5/4)
class#10 rep: (0, 1)
class#11 rep: (1/4, 1)
class#12 rep: (0, 2)
class#13 rep: (1/4, 2)
class#14 rep: (5/4, 1/2)
class#15 rep: (3/2, 1/4)
class#16 rep: (1, 1/4)
class#17 rep: (5/4, 0)
class#18 rep: (5/4, 3/2)
class#19 rep: (5/4, 5/4)
class#20 rep: (3/2, 5/4)
class#21 rep: (1, 5/4)
class#22 rep: (1, 1)
class#23 rep: (5/4, 1)
class#24 rep: (1, 2)
class#25 rep: (5/4, 2)
class#26 rep: (2, 1/4)
class#27 rep: (2, 0)
class#28 rep: (2, 5/4)
class#29 rep: (2, 2)
""",
    ),
    'bd3': (
        'mode bd\npred P : S^1 R^2\nfreeconst a b\nclause [x < -1; y < x] [] -> [P(a, x, y)]\nclause [y > 1; x > y] [P(a, x, y)] -> []\nclause [x > 0; x < 1] [P(b, x, y)] -> [P(a, y, x)]\n',
        """\
status: sat
stat preorders: 0
stat candidates: 1
stat classes: 13
stat prop vars: 21
stat prop clauses: 12
stat decisions: 18
domain: a
fconst a: a
fconst b: a
model: P (a) class#0 = false
model: P (a) class#1 = true
model: P (a) class#2 = false
model: P (a) class#3 = false
model: P (a) class#4 = false
model: P (a) class#5 = false
model: P (a) class#6 = false
model: P (a) class#7 = false
model: P (a) class#8 = false
model: P (a) class#9 = false
model: P (a) class#10 = false
model: P (a) class#11 = false
model: P (a) class#12 = false
model: P (a) class#13 = false
model: P (a) class#14 = false
model: P (a) class#15 = false
model: P (a) class#16 = false
model: P (a) class#17 = false
model: P (a) class#18 = false
model: P (a) class#19 = false
model: P (a) class#20 = false
class#0 rep: (7/2, 9/4)
class#1 rep: (-3/2, -11/4)
class#2 rep: (9/4, 1/2)
class#3 rep: (-7/4, 1/2)
class#4 rep: (-3/4, 1/2)
class#5 rep: (-3/4, 1/4)
class#6 rep: (-1/2, 1/4)
class#7 rep: (-1, 1/4)
class#8 rep: (1/2, 9/4)
class#9 rep: (1/2, -7/4)
class#10 rep: (1/4, -1/2)
class#11 rep: (1/4, -3/4)
class#12 rep: (1/2, -3/4)
class#13 rep: (1/4, -1)
class#14 rep: (1/4, 1/2)
class#15 rep: (1/4, 1/4)
class#16 rep: (1/2, 1/4)
class#17 rep: (0, 1/4)
class#18 rep: (1/4, 0)
class#19 rep: (1/4, 1)
class#20 rep: (1, 1/4)
""",
    ),
    'slr1': (
        'mode slr\npred P : S^1 R^1\nfreeconst a\nskolem d\nclause [x < d] [] -> [P(a, x)]\nclause [y >= d] [P(a, y)] -> []\n',
        """\
status: sat
stat preorders: 1
stat candidates: 1
stat classes: 3
stat prop vars: 3
stat prop clauses: 3
stat decisions: 0
domain: a
fconst a: a
gamma d: 0
model: P (a) class#0 = true
model: P (a) class#1 = false
model: P (a) class#2 = false
class#0 rep: (-1)
class#1 rep: (0)
class#2 rep: (1)
""",
    ),
    'slr2': (
        'mode slr\npred P : S^1 R^2\npred Q : S^1 R^1\nfreeconst a\nclause [x < y; x >= 0] [] -> [P(a, x, y)]\nclause [y < x] [P(a, x, y)] -> [Q(a, y)]\nclause [x > 1] [Q(a, x)] -> []\n',
        """\
status: sat
stat preorders: 1
stat candidates: 1
stat classes: 116
stat prop vars: 52
stat prop clauses: 98
stat decisions: 28
domain: a
fconst a: a
model: P (a) class#6 = false
model: P (a) class#7 = false
model: P (a) class#8 = false
model: P (a) class#9 = false
model: P (a) class#10 = false
model: P (a) class#11 = true
model: P (a) class#12 = true
model: P (a) class#13 = true
model: P (a) class#15 = false
model: P (a) class#16 = false
model: P (a) class#17 = false
model: P (a) class#18 = true
model: P (a) class#19 = true
model: P (a) class#20 = true
model: P (a) class#22 = false
model: P (a) class#23 = false
model: P (a) class#24 = false
model: P (a) class#25 = true
model: P (a) class#27 = false
model: P (a) class#28 = true
model: P (a) class#30 = false
model: Q (a) class#0 = false
model: Q (a) class#1 = false
model: Q (a) class#2 = false
model: Q (a) class#3 = false
model: Q (a) class#4 = false
model: Q (a) class#5 = false
model: Q (a) class#6 = false
model: Q (a) class#7 = false
model: Q (a) class#8 = false
model: Q (a) class#9 = false
model: Q (a) class#10 = false
model: Q (a) class#11 = false
model: Q (a) class#12 = false
model: Q (a) class#13 = false
model: Q (a) class#14 = false
model: Q (a) class#15 = false
model: Q (a) class#16 = false
model: Q (a) class#17 = false
model: Q (a) class#18 = false
model: Q (a) class#19 = false
model: Q (a) class#20 = false
model: Q (a) class#21 = false
model: Q (a) class#22 = false
model: Q (a) class#23 = false
model: Q (a) class#24 = false
model: Q (a) class#25 = false
model: Q (a) class#26 = false
model: Q (a) class#27 = false
model: Q (a) class#28 = false
model: Q (a) class#29 = false
model: Q (a) class#30 = false
class#0 rep: (-2, -1)
class#1 rep: (-1, 0)
class#2 rep: (-1, 1/2)
class#3 rep: (-1, 1)
class#4 rep: (-1, 2)
class#5 rep: (-1, -1)
class#6 rep: (-1, -2)
class#7 rep: (0, -1)
class#8 rep: (1/2, -1)
class#9 rep: (1, -1)
class#10 rep: (2, -1)
class#11 rep: (0, 1/2)
class#12 rep: (0, 1)
class#13 rep: (0, 2)
class#14 rep: (0, 0)
class#15 rep: (1/2, 0)
class#16 rep: (1, 0)
class#17 rep: (2, 0)
class#18 rep: (1/3, 2/3)
class#19 rep: (1/2, 1)
class#20 rep: (1/2, 2)
class#21 rep: (1/2, 1/2)
class#22 rep: (2/3, 1/3)
class#23 rep: (1, 1/2)
class#24 rep: (2, 1/2)
class#25 rep: (1, 2)
class#26 rep: (1, 1)
class#27 rep: (2, 1)
class#28 rep: (2, 3)
class#29 rep: (2, 2)
class#30 rep: (3, 2)
""",
    ),
}


# Every clause of the normalized encodings of timed_instances(0, 8), each
# streamed with all of its premise checks, as ``decide`` grounds it.
TIMED_STREAMS = (242, 6141, "eeed82641456bd861903a0f5faef445a8564e803a9c47fdbe0d0f00659b39c38")

# The structured ``decide`` report, without ``stat wall ms``, of the first
# 109 draws of random.Random(1706), alternating _raw_bd and _raw_slr, then
# of the encodings of timed_instances(0, 4): the ``decide`` digest of
# ``stream_digest.py --decide --bsr 109 --timed 4``.  Draws 34, 56 and 108
# are bd sets with a clause of five base variables.
DECIDE_DIGEST = (113, "41f2f48c02b85b2a1fe2fd1b053f5957412c498c4a6b62686502812ffb0a00f6")


@pytest.mark.parametrize("argv,want", SMALL_CASES)
def test_regions_small_cases_verbatim(argv, want):
    assert run_cli("regions", *argv) == want


@pytest.mark.parametrize("key", sorted(REGION_DIGESTS, key=repr), ids=repr)
def test_regions_output_digest(key):
    out = run_cli(*regions_argv(key))
    assert hashlib.sha256(out.encode()).hexdigest() == REGION_DIGESTS[key]


@pytest.mark.parametrize("name", sorted(DECIDE_CASES))
def test_decide_structured_output(name, tmp_path):
    text, want = DECIDE_CASES[name]
    path = tmp_path / f"{name}.cl"
    path.write_text(text, encoding="utf-8")
    out = run_cli("decide", str(path), "--output", "structured")
    got = [line for line in out.splitlines() if not line.startswith("stat wall ms:")]
    assert got == want.splitlines()


def test_timed_premise_streams_digest():
    h = hashlib.sha256()
    streams = classes = 0
    for aut, goal in timed_instances(0, 8):
        cs = normalize(encode_reachability(aut, goal, default_lambda(aut, goal)))
        for ctx in _contexts(cs, SolveStats()):
            for cl in cs.clauses:
                plan = _plan(ctx, cl)
                h.update(b"clause\n")
                if plan is None:
                    continue
                streams += 1
                for cls in ctx.classes(len(plan.bvars), plan.checks):
                    classes += 1
                    h.update(repr(cls.cells).encode() + b"\n")
    assert (streams, classes, h.hexdigest()) == TIMED_STREAMS


def test_decide_report_digest():
    rng = random.Random(1706)
    sets = [normalize((_raw_bd if i % 2 == 0 else _raw_slr)(rng)) for i in range(109)]
    sets += [
        normalize(encode_reachability(aut, goal, default_lambda(aut, goal)))
        for aut, goal in timed_instances(0, 4)
    ]
    h = hashlib.sha256()
    for si, cs in enumerate(sets):
        h.update(f"{si}\n".encode())
        for line in emit_result(decide(cs), "structured").splitlines(keepends=True):
            if not line.startswith("stat wall ms:"):
                h.update(line.encode())
    assert (len(sets), h.hexdigest()) == DECIDE_DIGEST
