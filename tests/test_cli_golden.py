"""Golden CLI output: stdout digests for a fixed argv matrix.

The digests pin the exact bytes each command prints, so a refactor of the
catalog, the renderers or the series engine that changes any output fails
here.  ``verify --format latex`` is checked on its content instead.  The
two ``verify --format json`` digests were re-recorded when that output
gained the final newline every other JSON output ends with.
"""

import hashlib
import json
import re
import shlex

import pytest

from mixedpoly.cli import main

# (argv, exit code, sha256 of stdout)
GOLDEN = [
    ('verify --id all --n-max 8 --variant corrected --format json', 0, "7f44260f0c9157ac452fffdb6f79b27889efcc23d5c5c000e0524e6564b73004"),
    ('verify --id all --n-max 8 --variant corrected --format csv', 0, "fd43cdeedcf972a4ea3f803a5f42efd4625820693e78073321ad618ef71dfb29"),
    ('verify --id all --n-max 8 --variant corrected --format plain', 0, "16a813147f9ff4682624a5928ed51048e047b7825014ccf03415276d19431fc1"),
    ('verify --id all --n-max 8 --variant as-printed --format json', 1, "bf1bbf5fede776216f66f533a6dce1b1c5a93cd5a0f3bd78125e0ba44b9c0b24"),
    ('verify --id all --n-max 8 --variant as-printed --format csv', 1, "1e34fd1b7b3162c58cc019626568f3137783723b071f4f94c252c50b32b8e561"),
    ('verify --id all --n-max 8 --variant as-printed --format plain', 1, "726724a52cb26dfe26a79b936bbf35eb9b4fb88a8a2f1ad9d09011b043545d34"),
    ('table --family B --order 2 --n 11 --format json', 0, "bc3d7d6e431b8ada376cb0ebd2bf75391c3332303c2dcfbba3233e87154b9505"),
    ('table --family E --order 2 --n 11 --format json', 0, "208c190b2eba7d307e9ca129d58915676cac8f6556a6df8544e30d61f4d4acb4"),
    ('table --family D --order 2 --n 11 --format json', 0, "e24abc036ee94529ac5d54b520c57b9e55bbf2f5d411a64ae2f2032b99b6af37"),
    ('table --family Ch --order 2 --n 11 --format json', 0, "61f13cfebca74d8e9a942fff96240e51a299e8d0288435aaf5c08f482ac7c532"),
    ('table --family C --order 2 --n 11 --format json', 0, "0a34b88f5843b2eb74b4c2f3dba0aee42e5aab4a6735cd14a8a2175d4a29580f"),
    ('table --mixed BE --r 2 --s 1 --n 11 --format json', 0, "9c813585ebdb5599254e0039b6fa840378ba33ae3e436c922868b8085412846f"),
    ('table --mixed DC --r 2 --s 1 --n 11 --format json', 0, "0083d290cd3ebb52488279768f466bab90c60effa9a41b0f10f3e6fcd3a722a0"),
    ('table --mixed CD --r 2 --s 1 --n 11 --format json', 0, "35d7931f0ef66005500683235245a93ea85668448f3f60544a9fcb6f639f584c"),
    ('table --mixed CC --r 2 --s 1 --n 11 --format json', 0, "f08118981eb7f0d4aabda79cabb839c49b658d84019d4a10be733bf3d997320f"),
    ('padic --kind bosonic --binom 1 --p 3 --N 1..4 --target daehee --format json', 0, "c32aeb8bb26855302fe6b702c0684e6ef53693d35c7ce425b8180ceed86c0ace"),
    ('padic --kind fermionic --binom 2 --p 3 --N 1..3 --k 2 --x0 1 --format json', 0, "2ace866eddf0cc689081c7686c6b765f37d698fe10696f8b255953f92b7b377c"),
    ('eval (2/(2+t))*(1+t)^x --T 4 --n 1 --format json', 0, "1ae4d3caf9cf43956c08d569b7e40958003c0738ed9d245b5d8b248c4c0d0fa4"),
    ('eval (t/(exp(t)-1))^2*exp(t)^x --T 6 --format json', 0, "64575d8c21c6f1ae01f661f8ebe720421f8eb557406bb3495b0851e37c904557"),
    ('table --family B --order 2 --n 11 --format csv', 0, "47610113998044f98abddb762a9790346dbce0f5e96e1e659b3b65b1606a760c"),
    ('table --family E --order 2 --n 11 --format csv', 0, "fa1dec0d184cb89ff88fc99a2632db59e2394c86e43d85e11cee427d1776e017"),
    ('table --family D --order 2 --n 11 --format csv', 0, "bc707bd9127c7dc73f06d5e27a6540e7bb27944ce37af6bc77070beb4c0ac983"),
    ('table --family Ch --order 2 --n 11 --format csv', 0, "be891d41249e29de2fa5c1c0fa543e3443b3e60a21b40998e2026385e51bc9df"),
    ('table --family C --order 2 --n 11 --format csv', 0, "0291e41fa298efc461a368ff63ad593b17923d93916c30110d8b10e0be0f8482"),
    ('table --mixed BE --r 2 --s 1 --n 11 --format csv', 0, "9ae5c6d7096e705f3c911b574851c9e39b7f0af09ee2323c754817931a37f5e6"),
    ('table --mixed DC --r 2 --s 1 --n 11 --format csv', 0, "4ffa20252ca655ae7532d283868c6cfec41e17da3521578b16a3a63a93a8f637"),
    ('table --mixed CD --r 2 --s 1 --n 11 --format csv', 0, "123304a1a8fd665b57583acaabc25b451867f1f912589a40cfef093a62bcaf56"),
    ('table --mixed CC --r 2 --s 1 --n 11 --format csv', 0, "92e0ede66c7cc812439c12b314fff00fdfcb6c52892560d494eee07b4ed9a828"),
    ('padic --kind bosonic --binom 1 --p 3 --N 1..4 --target daehee --format csv', 0, "c84c14b4fc3701abcda63e7fc4bd983495c31af1c0304c3c93000d9a0cf371b6"),
    ('padic --kind fermionic --binom 2 --p 3 --N 1..3 --k 2 --x0 1 --format csv', 0, "54d8e814d82be5849d77c5699c76171aa01cb3008ce2953cab5f2e6a0a2b3c18"),
    ('eval (2/(2+t))*(1+t)^x --T 4 --n 1 --format csv', 0, "f6a5fce793be134e487ebecab96371a51f3aff9e1e10ddd02afd9c6cb37961ce"),
    ('eval (t/(exp(t)-1))^2*exp(t)^x --T 6 --format csv', 0, "1dc1ec050d3e8771034184b556ae039f06be767c387609993ac6c66bf7b6dde0"),
    ('table --family B --order 2 --n 11 --format latex', 0, "094e6a3c7d1047ab4ac80a2c25cfa86439b5130248f4920da5908059b94ee986"),
    ('table --family E --order 2 --n 11 --format latex', 0, "fc596bac9e82575221b654f14606bbbd53c4d9642595c1f20e9215e942de5d01"),
    ('table --family D --order 2 --n 11 --format latex', 0, "51389902c217b81008508d6bb9684b674ca382766f850057491b7c65462a2688"),
    ('table --family Ch --order 2 --n 11 --format latex', 0, "83a30e074d02cf9c59600b04644c98d3acb77fa59a43d8d104b4d61e436e5095"),
    ('table --family C --order 2 --n 11 --format latex', 0, "0b5733102a8b90fb668b96c28a1b2b518540ad759e1b60d75e0724d5f45930d0"),
    ('table --mixed BE --r 2 --s 1 --n 11 --format latex', 0, "44384454bef35bdc9ee0d2568ebb820390e6bc2db45789ba23840b38a2f26257"),
    ('table --mixed DC --r 2 --s 1 --n 11 --format latex', 0, "3e4181c3761f8056ed8955ed10cec95af73c2744148a760971f9da19a5adb935"),
    ('table --mixed CD --r 2 --s 1 --n 11 --format latex', 0, "3149cdbb0e12fde7d764ccbdfc6dced3580d91bf955741ab7a6fcfb9bee2ce5c"),
    ('table --mixed CC --r 2 --s 1 --n 11 --format latex', 0, "c88353b735ab12c4d4ef4518a058ba7b689841c4279e9a5172c14abc839326e3"),
    ('padic --kind bosonic --binom 1 --p 3 --N 1..4 --target daehee --format latex', 0, "f57b198060d0765b3baae4eedbf92ac53c7f7705abf749e211b93931d10ec2de"),
    ('padic --kind fermionic --binom 2 --p 3 --N 1..3 --k 2 --x0 1 --format latex', 0, "feab198ed3fc2e33ac33c0b59ccb72fee93c3d44c4dc717239cf22ee1313520d"),
    ('eval (2/(2+t))*(1+t)^x --T 4 --n 1 --format latex', 0, "0535354256ec2e96b51c9aaf3db46f946a448ee21ee3b7aab29f0c4fd56aa1e1"),
    ('eval (t/(exp(t)-1))^2*exp(t)^x --T 6 --format latex', 0, "ae257af47901d5b78ac713da24c8c33fb18dbb93583122f1bd061c995a806a9a"),
    ('table --family B --order 2 --n 11 --format plain', 0, "bf666afecad21aebb01cde6a6ff56473d2a024eb01f38a6c34c2ab34aa64c187"),
    ('table --family E --order 2 --n 11 --format plain', 0, "870a11730dc2491e58e15104de4ece7cf505c88e425cd0ddac48dbf7b6f706c2"),
    ('table --family D --order 2 --n 11 --format plain', 0, "e63a751854c35eda42a7b29b82e32907e3b2907165236aecd6096e6e38ff90ab"),
    ('table --family Ch --order 2 --n 11 --format plain', 0, "e4a3c3ffe136f11ea373ad5879d20da00c0244efa386ca93c45850a12615d54f"),
    ('table --family C --order 2 --n 11 --format plain', 0, "f4df0313ac16d84fb4161d1dd4f3c409854d51e53f29f64cfce0f2e1da5de9ee"),
    ('table --mixed BE --r 2 --s 1 --n 11 --format plain', 0, "e4d3dbcb81ad110730d494e4bddcf0c961c139ed1ffc9b35daa110a5926d024e"),
    ('table --mixed DC --r 2 --s 1 --n 11 --format plain', 0, "e6a406d04f93f60114d09282591ee524cd36fb234c1cc279805af444c0be4e08"),
    ('table --mixed CD --r 2 --s 1 --n 11 --format plain', 0, "01e63b8717e477b02d74c73513587baf7c435ac9346b795203a621564b6dbf4b"),
    ('table --mixed CC --r 2 --s 1 --n 11 --format plain', 0, "69c8c41933e2daebd5c9783809fb01a89100c97afb11c55840639abee5e1e37f"),
    ('padic --kind bosonic --binom 1 --p 3 --N 1..4 --target daehee --format plain', 0, "5374047ad9990691c370c0394a17353be27f1ab15cda6a67f8726549deaefdb2"),
    ('padic --kind fermionic --binom 2 --p 3 --N 1..3 --k 2 --x0 1 --format plain', 0, "2bc172e02f428319a3068354889773c31b765ad899150dcf4b27a529220af7a7"),
    ('eval (2/(2+t))*(1+t)^x --T 4 --n 1 --format plain', 0, "65e242672f32d7c1eb915e22aa5c85dcb3b86adfce1d2de30a5bd95203db311a"),
    ('eval (t/(exp(t)-1))^2*exp(t)^x --T 6 --format plain', 0, "9d97bc2396ff1d6c2c1a5f58db4c24ffac013c572fa2616de21ad07887cae183"),
]


@pytest.fixture(autouse=True)
def _documented_defaults(monkeypatch):
    for var in ("MIXEDPOLY_BUDGET", "MIXEDPOLY_WIDTH"):
        monkeypatch.delenv(var, raising=False)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_stdout_digest(capsys, argv, code, digest):
    # The second call prints the text the first one stored on each polynomial.
    for _ in range(2):
        got_code, out = run(capsys, shlex.split(argv))
        assert got_code == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# Large tables of the (1+t)^x families, whose rows reach 300 Stirling and
# (1+t/2)^s steps; the digests were recorded from the dense row sum
# P_n = n! sum_m K_(n-m) (x)_m / m! that those rules replaced.
AT_SCALE = [
    ("table --family D --order 2 --n 300", "ffcb69270f3f12b78847471072857af39c0fdc329a253cd0ed72b273ee71921b"),
    ("table --family C --order 2 --n 300", "4836b584a6334ad80e6548c4edbb1a1fa1c738256e660d60fa0acab56792b33d"),
    ("table --family Ch --order 2 --n 300", "14da15ff6eeb8d6207e5262526525d84fafce9e4934e634fe8e924b4e91f1dba"),
]


@pytest.mark.parametrize("argv,digest", AT_SCALE, ids=[a[0] for a in AT_SCALE])
def test_large_table_digest(capsys, argv, digest):
    got_code, out = run(capsys, shlex.split(argv))
    assert got_code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("variant,code", [("corrected", 0), ("as-printed", 1)])
def test_verify_latex_table(capsys, variant, code):
    argv = ["verify", "--id", "all", "--n-max", "8", "--variant", variant, "--format"]
    got_code, out = run(capsys, argv + ["latex"])
    assert got_code == code
    _, json_out = run(capsys, argv + ["json"])
    lines = out.splitlines()
    assert lines[:3] == [
        r"\begin{tabular}{llrrrll}",
        r"identity & variant & $n$ & $r$ & $s$ & verdict & diff \\",
        r"\hline",
    ]
    assert lines[-1] == r"\end{tabular}"
    rows = json.loads(json_out)
    assert len(lines) == len(rows) + 4
    for line, row in zip(lines[3:-1], rows):
        *cells, diff = line.split(" & ")
        assert cells == [str(row[k]) for k in ("identity", "variant", "n", "r", "s", "verdict")]
        assert (diff == r"$0$ \\") == (row["verdict"] == "pass")
        assert diff.startswith("$") and diff.endswith(r"$ \\")
        assert "/" not in diff and "*" not in diff
        assert not re.search(r"\^\d", diff)


def test_verify_latex_braces_exponents_and_fractions(capsys):
    # Two-digit exponents need braces (x^10 typesets as x^1 0), and
    # fractions are \frac, as in ``table --format latex``.
    code, out = run(
        capsys,
        ["verify", "--id", "E34", "--variant", "as-printed", "--n-max", "11",
         "--orders", "1..1", "--format", "latex"],
    )
    assert code == 1
    assert "x^{10}" in out
    assert r"\frac{" in out
    assert "x^10" not in out
