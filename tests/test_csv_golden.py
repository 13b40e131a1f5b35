"""Golden bytes of the three CSV layouts the command line writes: a sweep
with '# flag:' lines, an evolve trajectory and a figure table.  The text
pins the layout and the 17-digit values together, so a deliberate change
to either must update it here.  Every figure bundle is pinned by the
sha256 of each file it writes."""

import hashlib

import numpy as np
import pytest

from qbattery import cli
from qbattery.figures import FIGURE_NAMES, GRID_AXIS

EVOLVE_CSV = """\
# command=evolve
# tool_version=0.1.0
# omega0=1.0
# gamma=0.1
# lambda=0.1
# tmax_Omega_tau=5.0
# steps=6
Omega_tau,re_kappa,im_kappa,population,stored_energy,ergotropy
0,0,0,0,0,0
1,0,-0.8407373409795823,0.7068392765174184,0.7068392765174184,0.4136785530348368
2,0,-0.90519086952620653,0.81937051027360985,0.81937051027360985,0.63874102054721971
3,0,-0.13419207108802222,0.018007511942892809,0.018007511942892809,0
4,0,0.75999472489891773,0.57759198187418159,0.57759198187418159,0.15518396374836319
5,0,0.95170923196904811,0.90575046221511546,0.90575046221511546,0.81150092443023092
"""

SWEEP_CSV = """\
# quantity=stored_energy_max
# units=omega0
# tool_version=0.1.0
# tmax=1.0
# grid=None
# flag: 0,0,boundary
# flag: 0,1,boundary
gamma_over_omega,lambda_1,lambda_inf
1,0.61412009710942539,0.43916014081667631
5,0.33679113573469927,0.099212565748012474
"""

FIG7A_CSV = """\
# figure=fig7a
# tool_version=0.1.0
lam,stored_energy_max,ergotropy_max
0.10000000000000001,0.9952300961063637,0.99046019221272741
0.12589254117941673,0.99406633704599745,0.9881326740919949
0.15848931924611134,0.99264037669627048,0.98528075339254095
0.19952623149688797,0.99090483763882198,0.98180967527764396
0.25118864315095801,0.98880997156935413,0.97761994313870826
0.31622776601683794,0.98630708157317581,0.97261416314635163
0.39810717055349731,0.98335386868175423,0.96670773736350846
0.50118723362727235,0.97992197177763107,0.95984394355526215
0.63095734448019325,0.9760065531210792,0.9520131062421584
0.79432823472428149,0.97163700764935756,0.94327401529871513
1,0.96688672999871872,0.93377345999743744
1.2589254117941675,0.96187856715275621,0.92375713430551243
1.584893192461114,0.95678170681474473,0.91356341362948945
1.9952623149688797,0.95179633252731355,0.9035926650546271
2.511886431509581,0.94712555467752713,0.89425110935505425
3.1622776601683795,0.94294006636350525,0.88588013272701049
3.9810717055349731,0.93934724530826308,0.87869449061652616
5.0118723362727247,0.93637778003147143,0.87275556006294286
6.3095734448019334,0.93399535602592054,0.86799071205184108
7.9432823472428176,0.9321222871122905,0.86424457422458101
10,0.93066684023819957,0.86133368047639913
"""


@pytest.mark.parametrize("argv, expected", [
    (["evolve", "--gamma", "0.1", "--lambda", "0.1", "--tmax", "5",
      "--steps", "6"], EVOLVE_CSV),
    (["sweep", "--gamma-axis", "1,5", "--lambda-axis", "1,inf",
      "--quantity", "stored_energy_max", "--tmax", "1"], SWEEP_CSV),
])
def test_command_csv_bytes(tmp_path, argv, expected):
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == expected.encode()


def test_figure_csv_bytes(tmp_path):
    assert cli.main(["figure", "fig7a", "--outdir", str(tmp_path)]) == 0
    table = tmp_path / "fig7a" / "maxima_vs_lambda.csv"
    assert table.read_bytes() == FIG7A_CSV.encode()


PANEL_SHA256 = {
    "fig2": {
        "manifest.json":
            "9f7970e71d12f7c56aca2c577eab09bb8b1294398a23381c1e4ca34885777f05",
        "nonmarkovianity_grid.csv":
            "b094808934999408e7a80fb6be8dcae8275c9979daf54e53890011588d515df5",
    },
    "fig3a": {
        "manifest.json":
            "7f811b6120791aa07d41f04cb400b9e8573ddbd2dc11ca318acb958bba551c1f",
        "stored_energy_vs_time.csv":
            "59057ca9396489d49b493bd737150e78ba3924f80c4cfdf760ed3c41d864155c",
    },
    "fig3b": {
        "ergotropy_vs_time.csv":
            "d02024ddd19dfffba12135a1abb1987a00dfd5ffb0b8f04382172357a01dc27e",
        "manifest.json":
            "598959f90e319599526b9a69627cf59149570a6afa947571ec3050c045bb5178",
    },
    "fig4a": {
        "manifest.json":
            "4d5097325136afd4c42ab67ef70064e21799b4caccbcb2bd3765f687c29d1eec",
        "stored_energy_max_grid.csv":
            "53fc346b126b3c528dc807fa56b537e3abc0d82e8c435e1ad77a33b3efe6a3a9",
    },
    "fig4b": {
        "ergotropy_max_grid.csv":
            "8134ff377b4452a7c9372eaa67e50ee8c9eeae22689ffc437fc432148c36ee86",
        "manifest.json":
            "50a34eac8fdd804ef9f83b4907cd313a25b5b714aa7dd09de40ab0cf7b467823",
    },
    "fig5a": {
        "manifest.json":
            "aa1e99e3d8e821d4b0e87b3a5ba5f22cd7ed82cd96480451500b1a673b6453f2",
        "stored_energy_vs_time.csv":
            "7b191be5d029ea941cd93ae7332923413ef0f5e596dd3b07c2b246392abcb0a0",
    },
    "fig5b": {
        "ergotropy_vs_time.csv":
            "9a62418f896bb8346ccef8ecbe628e5a12f19bd67bbd07ddafd4ab3c8426b5b1",
        "manifest.json":
            "acfe651818a45e599ed4aa35554c2678072ab03741cf8a5f5071c3d19cc0d47e",
    },
    "fig6a": {
        "manifest.json":
            "0690abfb97c20715f0f757d5bb03a9af59fabad5843c41afa012758355133116",
        "stored_energy_comparison.csv":
            "550588d07ec9533a05b0f210e425fc43f4be845d4884f1073285d374ffce087b",
    },
    "fig6b": {
        "ergotropy_comparison.csv":
            "1c91da1db3e5dd80947116aaf0cbc5302a415b21051e4ebd7c00c0a50ce2e9c3",
        "manifest.json":
            "fed0bc6369dfdd7a13430cc20b7d5da508de94f53f10fd347af354ed4d14d9f3",
    },
    "fig7a": {
        "manifest.json":
            "09cd6914f13f2130849d01789152ebd22342d1f23e439123ee4f596e999ab241",
        "maxima_vs_lambda.csv":
            "4421ccadee0be1b4b4ed4e9adf98474e8fa02d6ccd4dc32b015235f58ec548ce",
    },
    "fig7b": {
        "manifest.json":
            "5096f319923dfb98d77a2a26e8ff7589fe05437211ce245c279678337895d787",
        "maxima_memoryless.csv":
            "c37bebcd0535ae3bd1346ce11b7a375a0e8aa71a5fa4a46ed576fd5c02db6bf7",
        "maxima_with_memory.csv":
            "0a3fbeb56185cd7c3c14cfca794217ce816ff530f368e9885600cb1cfd064872",
    },
}


def test_figure_names_order():
    assert FIGURE_NAMES == ("fig2", "fig3a", "fig3b", "fig4a", "fig4b",
                            "fig5a", "fig5b", "fig6a", "fig6b", "fig7a",
                            "fig7b")


def test_grid_axis_is_log_spaced():
    """The pinned axis is np.logspace(-1, 1, 21) to an ulp, whichever
    kernel computes the reference here."""
    want = 10.0 ** np.linspace(-1.0, 1.0, 21)
    assert len(GRID_AXIS) == len(want)
    for got, x in zip(GRID_AXIS, want):
        assert abs(got - x) <= np.spacing(x), (got, x)


@pytest.mark.parametrize("name", FIGURE_NAMES)
def test_figure_bundle_sha256(tmp_path, name):
    assert cli.main(["figure", name, "--outdir", str(tmp_path)]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (tmp_path / name).iterdir()}
    assert written == PANEL_SHA256[name]
