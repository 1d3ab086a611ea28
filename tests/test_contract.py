"""The byte-identity contract of the package's outputs, pinned by sha256.

A refactor must leave every intersection report, every ``hookw intersect
--json`` output, the stdout and exit code of the eight default ``verify``
invocations, in one process and through the pool, and the
Gelfand-Tsetlin JSON byte for byte as they were.  The rationality
witnesses are pinned by ``test_catalog.py::TestRationalPoints::
test_output_is_pinned``.  The pins change only together with a stated
output diff.
"""

import hashlib

import pytest

import hookw
import hookw.cli as cli

# "\n".join of the reprs of the 360 reports of ``_reports()``, in its order.
REPORTS_SHA256 = "aadef99112f343798d5d9d814be628dbb774e17dc6050278c1e766e072d7c708"
# The concatenated stdout of ``intersect --json`` on the 20 pairs of ``_oracle_argvs()``.
ORACLE_CLI_SHA256 = "43c22ee5da5d2a3f5d95a99c61f90a146661da732d17e364875254b01c69da98"
# The stdout of ``verify <suite>`` and ``verify <suite> --json`` at the default sweeps.
VERIFY_SHA256 = {
    ("trialities", False): "99939b061e71a86b2c8e2f293d643c1d89e89923b40053657259aaf3f06c0444",
    ("trialities", True): "9cd2ff01ddaea985b2c235a5175536bd6d4711839aac0295a79e6c4c00f0cacc",
    ("coincidences", False): "9982cd305195a1b995558307204d9656cbf194a8ba4e4d015df9bd0b680c7d8e",
    ("coincidences", True): "565585395dc9d8bbc190d05485cab2fabbcbf8b786ca493dec97ab9cf417ecb5",
    ("charges", False): "c3178acf5e91a1a4b1016dab7d31b930a67e3e15170bcfaa9b1db3f9f6cc567d",
    ("charges", True): "a992a273234111b4374e6dfebe5d6562fa5f49120192b01c61da26c4f5322ccf",
    ("singular", False): "a5af4b9f8427d14dd6275df576dedb29f04d7e007ac8819d0b130bf3900b73da",
    ("singular", True): "5f917e53248f79908f81aee1f313fca7a98faeac02a399c6b186bf6e4dbe7dbf",
}
# The concatenated stdout of ``gt-factors --json`` on ``_gt_argvs()``.
GT_SHA256 = "84117aa2b6df2a0dbb8600f85b44cd7d85b2962aa64478a5c0454cb31d8c0f54"


def _reports():
    """2B(0..2, 0..2) against every target rule at r = min_r..3 and every family at (0..1, 0..1)."""
    for n in range(3):
        for m in range(3):
            source = hookw.phi_family("2B", n, m)
            for kind in hookw.TARGET_KINDS:
                rule = hookw.TARGETS[kind]
                for r in range(rule.min_r, 4):
                    yield hookw.intersect(source, rule.curve(r))
            for tag in hookw.FAMILY_TAGS:
                for n2 in range(2):
                    for m2 in range(2):
                        yield hookw.intersect(source, hookw.phi_family(tag, n2, m2))


def _oracle_argvs():
    """The 20 oracle pairs: 2B(n, m), n in 0..1, m in 1..2, against every target kind at r = 1, 2."""
    for n in (0, 1):
        for m in (1, 2):
            for kind in hookw.TARGET_KINDS:
                for r in (1, 2):
                    if r >= hookw.TARGETS[kind].min_r:
                        yield ["intersect", "--family", "2B", "--n", str(n), "--m", str(m),
                               "--target", kind, "--r", str(r), "--json"]


def _gt_argvs():
    """Series B, C and D at every n, k in 1..8."""
    for series in "BCD":
        for n in range(1, 9):
            for k in range(1, 9):
                yield ["gt-factors", "--series", series, "--n", str(n), "--k", str(k), "--json"]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_intersection_reports_are_pinned():
    reprs = [repr(report) for report in _reports()]
    assert len(reprs) == 360
    assert _sha256("\n".join(reprs)) == REPORTS_SHA256


def test_oracle_intersect_json_is_pinned(capsys):
    codes, outs = [], []
    for argv in _oracle_argvs():
        codes.append(cli.main(argv))
        outs.append(capsys.readouterr().out)
    assert codes == [0] * 20
    assert _sha256("".join(outs)) == ORACLE_CLI_SHA256


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("suite", cli.SUITES)
def test_default_verify_is_pinned(capsys, monkeypatch, suite, as_json):
    monkeypatch.setenv("HOOKW_WORKERS", "1")
    code = cli.main(["verify", suite] + ["--json"] * as_json)
    assert code == 0
    assert _sha256(capsys.readouterr().out) == VERIFY_SHA256[suite, as_json]


def test_verify_through_the_pool_is_pinned(capsys, monkeypatch):
    monkeypatch.setenv("HOOKW_WORKERS", "2")
    code = cli.main(["verify", "coincidences", "--json"])
    assert code == 0
    assert _sha256(capsys.readouterr().out) == VERIFY_SHA256["coincidences", True]


def test_gt_factors_json_is_pinned(capsys):
    codes, outs = [], []
    for argv in _gt_argvs():
        codes.append(cli.main(argv))
        outs.append(capsys.readouterr().out)
    assert codes == [0] * 192
    assert _sha256("".join(outs)) == GT_SHA256
