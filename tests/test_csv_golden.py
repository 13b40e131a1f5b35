"""Golden bytes of the three CSV layouts the command line writes: a sweep
with '# flag:' lines, an evolve trajectory and a figure table.  The text
pins the layout and the 17-digit values together, so a deliberate change
to either must update it here.  Every figure bundle is pinned by the
sha256 of each file it writes."""

import hashlib

import pytest

from qbattery import cli
from qbattery.figures import FIGURE_NAMES

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
1,0,-0.84073734097958219,0.70683927651741829,0.70683927651741829,0.41367855303483658
2,0,-0.90519086952620653,0.81937051027360985,0.81937051027360985,0.63874102054721971
3,0,-0.13419207108802222,0.018007511942892809,0.018007511942892809,0
4,0,0.75999472489891762,0.57759198187418148,0.57759198187418148,0.15518396374836296
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
1,0.6141200971094255,0.43916014081667631
5,0.33679113573469915,0.099212565748012474
"""

FIG7A_CSV = """\
# figure=fig7a
# tool_version=0.1.0
lam,stored_energy_max,ergotropy_max
0.10000000000000001,0.99523009610636348,0.99046019221272696
0.12589254117941673,0.99406633704599789,0.98813267409199579
0.15848931924611134,0.99264037669627048,0.98528075339254095
0.19952623149688797,0.9909048376388222,0.9818096752776444
0.25118864315095801,0.98880997156935457,0.97761994313870915
0.31622776601683794,0.98630708157317581,0.97261416314635163
0.39810717055349731,0.98335386868175489,0.96670773736350979
0.50118723362727235,0.97992197177763019,0.95984394355526037
0.63095734448019325,0.9760065531210792,0.9520131062421584
0.79432823472428149,0.97163700764935756,0.94327401529871513
1,0.9668867299987185,0.93377345999743699
1.2589254117941675,0.96187856715275644,0.92375713430551287
1.584893192461114,0.9567817068147445,0.91356341362948901
1.9952623149688797,0.9517963325273141,0.90359266505462821
2.511886431509581,0.94712555467752779,0.89425110935505558
3.1622776601683795,0.94294006636350436,0.88588013272700872
3.9810717055349731,0.93934724530826352,0.87869449061652705
5.0118723362727247,0.93637778003147121,0.87275556006294241
6.3095734448019334,0.93399535602592032,0.86799071205184064
7.9432823472428176,0.9321222871122905,0.86424457422458101
10,0.9306668402381999,0.8613336804763998
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
            "93abdf02094c6435c54062e56e56c4d4f11784b3b017beda8edb714795f05691",
    },
    "fig3a": {
        "manifest.json":
            "7f811b6120791aa07d41f04cb400b9e8573ddbd2dc11ca318acb958bba551c1f",
        "stored_energy_vs_time.csv":
            "725fe06af77670c280abfff11ba84124d856c0842d98b45402903aa60b340342",
    },
    "fig3b": {
        "ergotropy_vs_time.csv":
            "629978b5db707f90212de36eeabd42cd7369b81d0c4746f1180c4f360a78046e",
        "manifest.json":
            "598959f90e319599526b9a69627cf59149570a6afa947571ec3050c045bb5178",
    },
    "fig4a": {
        "manifest.json":
            "4d5097325136afd4c42ab67ef70064e21799b4caccbcb2bd3765f687c29d1eec",
        "stored_energy_max_grid.csv":
            "b68fcfabfacc3efa49355aa23c182ef2227e08243bcf7d8fbc768fdd58fd180b",
    },
    "fig4b": {
        "ergotropy_max_grid.csv":
            "902fdc338b32dc92795ffa3078fc5d6d4f87be57b55e02aa1a735919bd8deef4",
        "manifest.json":
            "50a34eac8fdd804ef9f83b4907cd313a25b5b714aa7dd09de40ab0cf7b467823",
    },
    "fig5a": {
        "manifest.json":
            "aa1e99e3d8e821d4b0e87b3a5ba5f22cd7ed82cd96480451500b1a673b6453f2",
        "stored_energy_vs_time.csv":
            "ba834a72a6d7a9027ef8da78aa2581e4d55544679cc553eac8ce54c94f3fedc5",
    },
    "fig5b": {
        "ergotropy_vs_time.csv":
            "42158169a504c24427f2117388a4915b0451964f174721e9c0328ae311069b14",
        "manifest.json":
            "acfe651818a45e599ed4aa35554c2678072ab03741cf8a5f5071c3d19cc0d47e",
    },
    "fig6a": {
        "manifest.json":
            "0690abfb97c20715f0f757d5bb03a9af59fabad5843c41afa012758355133116",
        "stored_energy_comparison.csv":
            "b7586484cdbcd572ea5634f35bd3b21998890fc34bf6a663212754f5839b480a",
    },
    "fig6b": {
        "ergotropy_comparison.csv":
            "189ad56a94dc904994a635801bac1a01ea3b375b73d5105cf2f0c58e31a82aef",
        "manifest.json":
            "fed0bc6369dfdd7a13430cc20b7d5da508de94f53f10fd347af354ed4d14d9f3",
    },
    "fig7a": {
        "manifest.json":
            "09cd6914f13f2130849d01789152ebd22342d1f23e439123ee4f596e999ab241",
        "maxima_vs_lambda.csv":
            "016881bc8f58ca72c03bdc6c3d0b9d1740db1281e2d3965ab37f65869f69a962",
    },
    "fig7b": {
        "manifest.json":
            "5096f319923dfb98d77a2a26e8ff7589fe05437211ce245c279678337895d787",
        "maxima_memoryless.csv":
            "f38bc7ca80f4413a1d764b4dadd78cc48eba53dada0d67c4bdd77dff8ea9c985",
        "maxima_with_memory.csv":
            "36c64bde85a2de3cc27f5519c621b4ec84a764fec00cc67b1ac1be31cc2b4397",
    },
}


def test_figure_names_order():
    assert FIGURE_NAMES == ("fig2", "fig3a", "fig3b", "fig4a", "fig4b",
                            "fig5a", "fig5b", "fig6a", "fig6b", "fig7a",
                            "fig7b")


@pytest.mark.parametrize("name", FIGURE_NAMES)
def test_figure_bundle_sha256(tmp_path, name):
    assert cli.main(["figure", name, "--outdir", str(tmp_path)]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (tmp_path / name).iterdir()}
    assert written == PANEL_SHA256[name]
