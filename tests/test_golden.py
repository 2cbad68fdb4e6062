"""Bit-identity of every procedure's output, pinned by SHA-256 digests.

Each digest covers every ``Trajectory`` field (dtype and raw bytes) of one
procedure run on a fixed-seed stream.  ``fit``, per-event ``step()`` and a
split ``fit`` + ``partial_fit`` must all reproduce the recorded digest, so
any change to the engine's arithmetic or bookkeeping -- down to the last
bit -- fails here.  The oracle comparisons elsewhere only check to 1e-10.

``test_input_stream_digest`` pins the generated inputs as well: when it
fails, this platform's numpy / scipy built different streams, and the
trajectory digests then say nothing about the engine.
"""

import hashlib
import warnings

import numpy as np
import pytest

import scorefdr as sf

HORIZON = 3000
SPLIT = 1234
RAI = sf.Schedule.parse("rai,0.05,0.5,0.5")
# The default gamma halves each step, so LOND stops spending within ~50
# steps; a slowly decaying gamma keeps LOND's budget live over the stream.
SLOW_GAMMA = sf.Schedule.geometric(0.999)

GOLDEN = {
    "e-lond/default": "6c82db77d24ff9d92870bab1e42ea107623841b2a547065da6b07ba7cb2f52c4",
    "score-lond/default": "2fe7faf0527c9cc49a6e1f1a373fc5a314944082d95450627de880d1c1aa52f0",
    "e-lond/slow-gamma": "7654dd45cdfa8ee15c4ebef4f71cec72cb2d4c3f4a9acb293a9e8eb04f46b0aa",
    "score-lond/slow-gamma": "e3493b86389cb220b425913ae45bfb9a86c9349447b9949eb91bfecc618c5fc4",
    "e-lord/default": "5592601c1fafecb408a270000efe0d0d10f834ea56f67347b2c86fc513b67356",
    "e-lord/rai": "ff7917f072e64fd3df0ba91c2d608fac7d6ad305b5fc96aa6bf2c67619386fbb",
    "score-lord/default": "19405306c36efceb5b134a6569c2a6c6acd50387d20fdb5c712ac866c2ac9256",
    "score-lord/rai": "2d123bb2e3a47425c4cf6ba15c8325c2b91d6bcce76fbb38f7873201d0e4d37c",
    "score-plus-lord/default": "72fee81c4df34038ffd05039ab4bb9fa80ff6fa4eb20f6e227e51005ca0b6014",
    "score-plus-lord/rai": "d8377abd62d7c64cc52a2ff7c5418fcf206adca9a6eadc6fa8cafe2fa7ecb5c3",
    "e-saffron/default": "b4c5fb6edde8941c63d119255c33d57f701a839ad5f41fe81399be2f08a0df2d",
    "e-saffron/rai": "eee5609b67a22790a92b7a08edb6db3a7a6bdb36baf5478825a9a01caa38a43a",
    "score-saffron/default": "ecc445639b3f73172cfc7d34042153b8588ec74d7cedbd60746df9b42790bf3b",
    "score-saffron/rai": "c5b828a722d066d381a4378f7ab63b3214579e2996f3dbc5d9e9cf31c2eb87b0",
    "score-plus-saffron/default": "13ebe4705ba0852327a0961a0933f8ec5e923a472f0a5016fdcbfc3846212486",
    "score-plus-saffron/rai": "782fdf4fd87f4fe115060764bfdb21f56c14306506f642c90791580b1c6b1a89",
    "p-lond/default": "e45da2bd18cb31efe71f01ca2efe6cec34212afbfbe8fe31b648785dc8a99af2",
    "p-lond/slow-gamma": "14ea754b533961446e941d3e459cc33d3a1fbdac1d80f156b9743f2a3f0e67c1",
    "p-lord/default": "a77f01fe0686ff7fa55024e5cb303c2e6eb8453c0ecdcd0bec15ef24c1ae9287",
    "p-lord/rai": "4119e848b7c04760010d0df0fef46df3cb8d10949bac52d5e72bf114f67218df",
    "p-saffron/default": "492cf1dd589dcaf3048e0a278dfbacff7d7f5b2b0ea4b4da49c81bf1eed5c7cb",
    "p-saffron/rai": "fe48124cda86cd69e813731e1a07c8422d04728b8425b5ac0289ecc4a5c6d4ee",
    "score-plus-lord/large-alpha": "7ea6434a7310399d7cd52fad2d3d2526cecde3f1f6f710a5c952ded1b48e8f6e",
}

#: SHA-256 of the input evidence and truth streams built below.
INPUTS = {
    "e": "7761b66d8b122657704bafb142f52c44bc873a9dbc968513fa03e79affe77dec",
    "p": "b9453a4db41ef4cf93f852aa5fca92dee2f2c66b34160609397c80af31fee929",
}

#: SHA-256 of the two autoregressive generators' streams: ar_exponential's
#: ``x``, ``evalue`` and ``truth``; ar1_gaussian's ``x`` and ``p_marginal``.
GENERATORS = {
    "ar_exponential": "e1332609d23d9530ce9a6d30bf6b10c7ecf4889ee2bd6e558d7b5856934d6af0",
    "ar1_gaussian": "f1a7ec2c6cfff69b73a716bc5793e3692fe17c7c3ceed51ed732869c95d160a0",
}


#: A config of each DGP, at the default parameters and at other ones, and the
#: SHA-256 of every array ``generate`` returns for it (``x0`` as ``float.hex``).
STREAM_FIELDS = ("x", "truth", "x0", "evalue", "p_conditional", "p_marginal")
GENERATED = {
    "gaussian_mixture/3000": (
        dict(dgp="gaussian_mixture", horizon=3000, seed=7),
        "5d4041c4cdbf7f671dddd8034c40bf7e03475348ec8202875940ed4b3289c6d0"),
    "gaussian_mixture/257": (
        dict(dgp="gaussian_mixture", horizon=257, pi1=0.9, seed=123),
        "de69d528312d5d08438a0c3558bf05f0ad34e0220201de89ce70706c1e901637"),
    "ar_exponential/3000": (
        dict(dgp="ar_exponential", horizon=3000, seed=7),
        "08e2de2191573ce993d4cd5ac2591ce56cea84402b5aa409b2f129f4b5a00354"),
    "ar_exponential/257": (
        dict(dgp="ar_exponential", horizon=257, pi1=0.6, rho=2.0, mu_set=(1.5, 4.0, 50.0),
             seed=123),
        "e228465bbdebcc4f9ab0b20212aadcff90808becd7cb351cfe207f3fb4826162"),
    "ar1_gaussian/3000": (
        dict(dgp="ar1_gaussian", horizon=3000, seed=11),
        "1f8ccd60b1a0b493bcc06c99a5fa28edb5f55ab422f058cc7355b47fbb9afd44"),
    "ar1_gaussian/257": (
        dict(dgp="ar1_gaussian", horizon=257, pi1=0.5, phi0=-0.7, phi1=1.2, seed=123),
        "ff06928e3acc518cdafbf52b2a332d718e59f755e496ed24e906d8184b019f43"),
}


def stream_digest(stream: sf.GeneratedStream) -> str:
    h = hashlib.sha256()
    for name in STREAM_FIELDS:
        value = getattr(stream, name)
        h.update(name.encode())
        if value is None:
            h.update(b"none")
        elif name == "x0":
            h.update(float(value).hex().encode())
        else:
            h.update(value.dtype.str.encode() + value.tobytes())
    return h.hexdigest()


def _streams():
    e = sf.generate(sf.DgpConfig("gaussian_mixture", horizon=HORIZON, seed=7))
    p = sf.generate(sf.DgpConfig("ar1_gaussian", horizon=HORIZON, seed=11))
    return {"e": (e.evalue, e.truth), "p": (p.p_conditional, p.truth)}


STREAMS = _streams()


def _cases():
    for pid, cls in sf.PROCEDURES.items():
        yield pid, "default"
        if "omega" in cls._param_names():
            yield pid, "rai"
        if "gamma" in cls._param_names():
            yield pid, "slow-gamma"


def _build(pid, schedule):
    return sf.make_procedure(pid, omega=RAI if schedule == "rai" else None,
                             gamma=SLOW_GAMMA if schedule == "slow-gamma" else None)


def digest(traj: sf.Trajectory) -> str:
    h = hashlib.sha256()
    for name in ("alpha", "decision", "overshoot", "cost", "rejections",
                 "fdp_hat", "wealth", "truth"):
        arr = getattr(traj, name)
        h.update(name.encode())
        if arr is None:
            h.update(b"none")
        else:
            arr = np.ascontiguousarray(arr)
            h.update(arr.dtype.str.encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def _run_fit(proc, X, y):
    return proc.fit(X, y).trajectory()


def _run_step(proc, X, y):
    kind = proc.evidence_kind
    for i, (value, truth) in enumerate(zip(X.tolist(), y.tolist()), start=1):
        proc.step(sf.Observation(i, value, kind=kind, truth=truth))
    return proc.trajectory()


def _run_split(proc, X, y):
    return proc.fit(X[:SPLIT], y[:SPLIT]).partial_fit(X[SPLIT:], y[SPLIT:]).trajectory()


@pytest.mark.parametrize("kind", ["e", "p"])
def test_input_stream_digest(kind):
    # Pins the generated inputs, so that a digest failure below can be told
    # apart from a change in the generators or in numpy / scipy float routines.
    X, y = STREAMS[kind]
    assert hashlib.sha256(X.tobytes() + y.tobytes()).hexdigest() == INPUTS[kind]


@pytest.mark.parametrize("dgp,seed,fields", [
    ("ar_exponential", 7, ("x", "evalue", "truth")),
    ("ar1_gaussian", 11, ("x", "p_marginal")),
])
def test_generator_digest(dgp, seed, fields):
    # The streams the inputs above do not cover, pinned bit for bit, so a
    # rewrite of either recursion cannot change a value unnoticed.
    stream = sf.generate(sf.DgpConfig(dgp, horizon=HORIZON, seed=seed))
    data = b"".join(getattr(stream, name).tobytes() for name in fields)
    assert hashlib.sha256(data).hexdigest() == GENERATORS[dgp]


@pytest.mark.parametrize("key", GENERATED)
def test_every_generated_array_digest(key):
    # every array of every DGP, e-values and both p-values included, so that a
    # rewrite of a generator cannot change a bit of any of them unnoticed
    config, want = GENERATED[key]
    stream = sf.generate(sf.DgpConfig(**config))
    assert type(stream.x0) is float
    assert stream_digest(stream) == want


@pytest.mark.parametrize("path", [_run_fit, _run_step, _run_split],
                         ids=["fit", "step", "partial_fit"])
@pytest.mark.parametrize("pid,schedule", list(_cases()))
def test_trajectory_digest(pid, schedule, path):
    proc = _build(pid, schedule)
    X, y = STREAMS[proc.evidence_kind]
    assert digest(path(proc, X, y)) == GOLDEN[f"{pid}/{schedule}"]


def test_large_alpha_chain_digest():
    # Repeated huge e-values drive score-plus-lord's budget past 1; the
    # warning fires once and the run stays pinned bit for bit.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traj = sf.ScorePlusLord().fit(np.full(450, 1e9)).trajectory()
    assert sum("reached 1" in str(w.message) for w in caught) == 1
    assert traj.alpha.max() >= 1.0
    assert digest(traj) == GOLDEN["score-plus-lord/large-alpha"]


if __name__ == "__main__":
    # Print the digests of the current code, for recording GOLDEN.
    for pid, schedule in _cases():
        proc = _build(pid, schedule)
        print(f'    "{pid}/{schedule}": "{digest(_run_fit(proc, *STREAMS[proc.evidence_kind]))}",')
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj = sf.ScorePlusLord().fit(np.full(450, 1e9)).trajectory()
    print(f'    "score-plus-lord/large-alpha": "{digest(traj)}",')
