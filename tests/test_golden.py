"""Golden outputs of the closed-form commands.

Each entry holds the SHA-256 of every CSV file a command writes and of its
canonical JSON ``results`` and ``provenance`` (key-sorted, compact). These
commands use closed forms and deterministic root finding only (the
equilibrium entry starts on the twisted state, so Newton takes no step and
its eigenvalues come in closed form), so a change that leaves the numerics
alone leaves every byte of them alone. The roots the package's Brent
solver finds outside these commands (finite-ring thresholds and upsilon0)
are pinned by their ``float.hex`` digits, and two finite-ring runs by their
end time, final state and counts. The bytes were recorded on x86-64
Linux with NumPy 2.4.6; another platform's math library may move last
digits.
"""

import hashlib
import json

import pytest

from twistlab.cli import main

GOLDEN = {
    "spectrum --preset fig2": {
        "fig2.csv": "1a66ece9561b982c5f74351a059002366316646ef2b7121f623395f5052d3a99",
        "results": "ffa0237d3cd469e9319cf43c105a638a1c1dc318e45679455faca7f51dc45e14",
    },
    "gamma --preset fig3a": {
        "fig3a.csv": "3e6dbfbdcd4a7781eb9a9a3c4f90a9d867a69277e96598fcddb1cec29442265c",
        "results": "0e15149360459404c0ae3b5e9c23ff2ace86adff6458002eac1b7b466e02d1e4",
    },
    "gamma --preset fig3b --q-max 6": {
        "fig3b.csv": "46d68c0f7f0a2b5927a3e0a983745ed0f7244914b2363558cdd5300867513388",
        "results": "31326c81c2ad7f5669dbfce91f2851138d066e5002edb4607e2876d2d9869618",
    },
    "stability-map --preset fig4": {
        "boundary.csv": "5e91d2e1ec547da26488b06fa9d97e26588bb33058cb04392f4e9576536ff236",
        "flags.csv": "9626555d3814eefb2a0ddf3a5f1390b4ba92981b56d09ea5920a1d497905ae01",
        "grid.csv": "5da65cce03e11b5010de90f4d9ac91de35fba10012c98b42224316a04ad80a07",
        "results": "7c6fd382710372f5438b3f0b540e1bb31297e071be8a7d7186206f14558e9305",
    },
    "iota --preset fig7": {
        "iota.csv": "b87de87c9791ac222339ab8d175ba2fc57f68e710097d45bcdad28d56930fae8",
        "results": "0298ae86861effec4651404eee288b77d401a5ddb2165388552a5460b52bc3ea",
    },
    "thresholds --q 5 --kind attractive": {
        "thresholds.csv": "2a1e07e9b69ddcb0a5b34a7d5419efde700085d18205844dd1d1d90b3b646ad2",
        "results": "6bbd8ca87fd1aabfc41a3a6c33d54c732105291e4fb4e4495000064d680ea2be",
    },
    "thresholds --q 5 --kind repulsive": {
        "thresholds.csv": "e3bc6f805bcd3d3bb052388bef7ed9eb8113922bc32e3c119957dc31f0405dd5",
        "results": "7f7e4af1d24692bf8b08cbf84bc2f667f5ffbcf84c11f4cfb5e45e169d09a46f",
    },
    "thresholds --q 5 --kind r-star": {
        "thresholds.csv": "23bf11ba2ee3007880bac47aa074c2754ffd27ba9a09c74c754bd68d7f4acf3b",
        "results": "cdf270f0a58060bbda899e0f82ea6ff7ab9057fe1b70100a5a108a11d2a5f066",
    },
    "gamma --q 5 --at repulsive-threshold --s0=-1e-5": {
        "gamma.csv": "1cca5bd3c3d7b5a93a3548a03e8a3e55ac9f558ffc78b90f0a6148fe2a31bc0f",
        "results": "804709969be29572cfeced2c8659bb7ce75dd0426f881bf184248269180e18ee",
    },
    "equilibrium --M 150 --q 5": {
        "equilibrium.csv": "a62dbdbd89f6913f125af7f71033ad7f9d380a70400849fe6197fefb299122d8",
        "results": "1328d841d28ffa91b673e4f72d646a61659585c1a485ba71138a7dcabcd76606",
    },
    "gamma --q 2 --family t-family --r0 0.3 --t=-0.2": {
        "gamma.csv": "959db8e390164fc307e17ec24e936c6035172f98a2af8f11ad5e3acf60875dd3",
        "results": "2e39ef921e8d3c1578bc0e88dc23fb9dc74ee286c8b43bcc2ef73360f5db159a",
    },
    "spectrum --q 5 --r 0.118": {
        "spectrum.csv": "a632c29f2fbb59c9084e5476cd3c6ed8a3b1a4e075d42b37d09091b670bedc40",
        "results": "ca82429c72d701546b69ee47c13c3ef11bdbb0cb21b16573494e2bfe0b74c7af",
    },
    # r0 0.27756255557697573: the scan stops in its fifth block of radii, short
    # of the two near 1/2 that its first listing leaves open
    "thresholds --q 2 --kind repulsive": {
        "thresholds.csv": "8fe6c44868c4d117751717992421a2596dcd9e3c1fe759dccd917de288c23d1a",
        "results": "18fc244fa317921d07d2fffbbcf92530b8306ecf10a22216ccf752e59c884b08",
    },
    # r* 0.0009999999999995568: the twist mode leads on the whole scanned
    # range, and its last two radii take the per-radius listing
    "thresholds --q 1 --kind r-star": {
        "thresholds.csv": "73aea37bd6ff34797a9b6ccb6f73dd89fb0c34d6297a01134f5be2a02e8687c4",
        "results": "5710eeaf08759053c068715945346c7b6bcc8ec83bac25a9acacdea4884cf9a7",
    },
    # r* 0.06838378906249962
    "thresholds --q 12 --kind r-star": {
        "thresholds.csv": "e825d2c77473c1494379fe9412ea52158d272bebcfdb583c4c14f2c70e48c6b4",
        "results": "46bd1745e0dccf25b43852b539fa79974613060ecf9fca24f7b9a4ee2890eac4",
    },
    # r0 0.3404614171300564: Brent refines on c1(1, 1, .), where q + |k| <= 2
    "thresholds --q 1 --kind attractive": {
        "thresholds.csv": "756f3b8aa7699d2c668b1d9ecaccee4e7503694a254983b8e879e77412a28b21",
        "results": "c4670c341fae1159ad1a91cedf5e6f425d878b765e45786f6f6417b93cca1608",
    },
    # one value each from the kernel closed forms at a single point
    "kernel --name c1 --q 1 --k 1 --r 0.3": {
        "kernel.csv": "710eb65479b916f762b3c815aae4f34422c2fa3740016564754554cc400f9350",
        "results": "8ccd2e46d741ee50d327e5db797d1e1d3be2aaea90b73b004aa8794927a413be",
    },
    "kernel --name c1 --q -3 --k 2 --r 0.21 --lambda=0.3 --mu=-0.2": {
        "kernel.csv": "b0263396b44fe0e3de675b2238c8206d5605d62d2800d6e3034da1b36a3bb47c",
        "results": "7b73be3ba9b12fc1e255983ac55abda006d88bdc5244b260c14b6b1ceafdab72",
    },
    "kernel --name w-hat --r 0.3 --k -7": {
        "kernel.csv": "b9aa52b7f73701b93f21e2ab2baf1766a576ecb93fca84689834342c1c9cf9a4",
        "results": "62d536c6bbe366b90028f9fa217103812d236200ab4fb91f22c48950ced1d157",
    },
    "kernel --name c5 --q 5 --k 1 --r 0.0663 --lambda=0.1": {
        "kernel.csv": "a563150aa75b3f1fec084c9851c1c4dbf8f96afa50fb223381c3388844983be9",
        "results": "72686babef8f330d5bfedc8fc65b85982498e1c1cb7c87b8c12937622781516f",
    },
    "kernel --name big-h --q 8 --r 0.3": {
        "kernel.csv": "d5fe179413f7afaaee686929ff72bf80315552877b7b79166e5eabe7c1c4f7cb",
        "results": "68081b16df1ab6c4539aea70261380be7cb3438c2db33fafe4b72b1f06ca081a",
    },
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command", list(GOLDEN))
def test_closed_form_outputs_match_golden_hashes(command, tmp_path):
    out = tmp_path / "out"
    assert main(command.split() + ["--out", str(out)]) == 0
    payload = json.loads(next(out.glob("*.json")).read_text())
    got = {path.name: _sha256(path.read_bytes()) for path in sorted(out.glob("*.csv"))}
    canonical = {"results": payload["results"], "provenance": payload["provenance"]}
    got["results"] = _sha256(json.dumps(canonical, sort_keys=True, separators=(",", ":")).encode())
    assert got == GOLDEN[command]


#: Roots found by the Brent port outside the golden commands, as float.hex:
#: finite-ring thresholds ``(q, M, kind)`` and upsilon0.
GOLDEN_ROOTS = {
    (5, 1000, "attractive"): "0x1.0d987be6bb906p-4",
    (5, 1000, "repulsive"): "0x1.dd570906ab516p-4",
    (3, 200, "repulsive"): "0x1.82e5812c8cc5dp-3",
    (8, 400, "attractive"): "0x1.492d28d7744c4p-5",
}
GOLDEN_UPSILON0 = "0x1.a044ebb182505p-2"


@pytest.mark.parametrize("args", list(GOLDEN_ROOTS))
def test_finite_thresholds_match_golden_bits(args):
    from twistlab.ring import finite_threshold

    assert finite_threshold(*args).hex() == GOLDEN_ROOTS[args]


def test_upsilon0_matches_golden_bits():
    from twistlab.kernel import upsilon0

    assert upsilon0().hex() == GOLDEN_UPSILON0


#: ``integrate`` runs at tol 1e-11, t_end 2e6, from
#: ``perturb(twisted_state(M, q), 1e-2, 1)``: ``t_reached`` as float.hex, the
#: final state's SHA-256 prefix, and ``(steps, rhs_evals, stop_evals,
#: jacobians)``. fig6 is the repulsive M=1000, q=5 ring 1e-5 inside its
#: threshold (LSODA, band Jacobian); large_ring the stable M=65536, q=8 ring
#: with all three orders (ETDRK4). They hold at any OPENBLAS_NUM_THREADS:
#: loading ``ring`` sets OpenBLAS to one thread whatever the caller exported.
GOLDEN_RUNS = {
    "fig6": ("0x1.0d9960d08ca52p+19", "4a43048c340f058f", (686, 1777, 689, 71)),
    "large_ring": ("0x1.1168060e05392p+9", "b39c882645068d9d", (8, 42, 9, 0)),
}


@pytest.mark.parametrize("name", list(GOLDEN_RUNS))
def test_integrate_runs_match_golden_bits_and_counts(name):
    from twistlab import ring
    from twistlab.kernel import Params

    if name == "fig6":
        M, q, sign = 1000, 5, ring.REPULSIVE
        p = Params(ring.finite_threshold(q, M, sign) - 1e-5)
    else:
        M, q, sign, p = 65536, 8, ring.ATTRACTIVE, Params(0.3, 6.0, 0.2)
    theta0 = ring.perturb(ring.twisted_state(M, q), 1e-2, 1)
    out = ring.integrate(theta0, ring.SystemSpec(p, sign=sign), ring.build_weights(M, p.r),
                         t_end=2e6, tol=1e-11)
    assert out.stop_reason == "equilibrium"
    counts = (out.steps, out.rhs_evals, out.stop_evals, out.jacobians)
    assert (out.t_reached.hex(), _sha256(out.theta.tobytes())[:16], counts) == GOLDEN_RUNS[name]
