"""Byte-level lock on the JSON the CLI prints, over a fixed corpus.

Each digest is the SHA-256 of the full stdout of one `wedderburn ... --format
json` call.  The instances reach every frame tag (psi+/psi-, quad, tau-pair,
omega-pair, sigma-tau, eta-omega, theta-omega), both q mod 4 classes, every
route to a non-central pair (the split-style closed form, the sqrt(-1) closed
form for q = 1 mod 4, the xi^{n/2} closed form for q = 3 mod 4 with the
2-part of n beyond q + 1, as at q = 3 and 11 on nonsplit:n=8,s=9, and
interpolation in the eta and theta frames), three
towers over F_9, two quad components over a tower on a tower (at q = 27 and
343, which `verify` grades, since perfbench.checks takes q = p or 9 only),
two factor lattices of splitting degree 16, and the six factor lattices of
splitting degree 8 to 22 that the benchmark's factor-deep workload runs.  The battery digest covers `wedderburn battery --format json`,
rebuilt from the shared `battery_result` fixture exactly as `cli._emit_json`
prints it.

A change that alters any of these bytes must say so and record new digests.
"""

import hashlib
import json

import pytest

from perfbench.checks import check_idempotents
from wedderburn import cli
from wedderburn.decompose import SELF_INVOLUTIVE, decompose, route
from wedderburn.fields import ExtField
from wedderburn.groups import make_group, parse_group

INSTANCES = (
    (3, "split:n=1,s=1"),
    (3, "split:n=4,s=3"),
    (3, "split:n=8,s=7"),
    (3, "nonsplit:n=1,s=1"),
    (3, "nonsplit:n=2,s=3"),
    (3, "nonsplit:n=4,s=3"),
    (3, "nonsplit:n=4,s=5"),
    (3, "nonsplit:n=5,s=9"),
    (3, "nonsplit:n=8,s=7"),
    (3, "nonsplit:n=8,s=9"),
    (5, "split:n=4,s=3"),
    (5, "nonsplit:n=2,s=3"),
    (5, "nonsplit:n=3,s=5"),
    (5, "nonsplit:n=4,s=5"),
    (7, "split:n=4,s=3"),
    (7, "split:n=6,s=5"),
    (7, "nonsplit:n=3,s=5"),
    (7, "nonsplit:n=4,s=7"),
    (7, "nonsplit:n=6,s=11"),
    (7, "nonsplit:n=12,s=23"),
    (9, "split:n=7,s=6"),
    (9, "split:n=10,s=9"),
    (9, "nonsplit:n=4,s=3"),
    (9, "nonsplit:n=5,s=9"),
    (11, "split:n=5,s=4"),
    (11, "nonsplit:n=3,s=5"),
    (11, "nonsplit:n=6,s=7"),
    (11, "nonsplit:n=8,s=9"),
    (11, "nonsplit:n=8,s=15"),
    (13, "split:n=3,s=2"),
    (13, "nonsplit:n=2,s=3"),
    (13, "nonsplit:n=3,s=5"),
)

# q = p^3 with p = 3 mod 4: y^2 = xi^n has no root in the factor field, so
# the quad component is a quadratic extension of a factor field over F_q, a
# tower on a tower; n=5,s=9 at q = 27 reaches sigma-tau and eta-omega too
TOWERS_ON_TOWERS = (
    (27, "nonsplit:n=5,s=9"),
    (343, "nonsplit:n=1,s=1"),
)

# factor only: splitting degree ord_N(q) = 16 on both
DEEP = (
    (3, "split:n=17,s=16"),
    (5, "nonsplit:n=17,s=1"),
    # the benchmark's factor-deep pairs (q, N), splitting degrees 8 to 22;
    # q = 9, N = 17 is a degree-8 tower over F_9
    (3, "split:n=19,s=1"),
    (5, "split:n=23,s=1"),
    (7, "split:n=17,s=1"),
    (9, "split:n=17,s=1"),
    (11, "split:n=23,s=1"),
    (13, "split:n=19,s=1"),
)

CASES = tuple(
    [(cmd, q, grp) for cmd in ("factor", "decompose", "idempotents")
     for q, grp in INSTANCES + TOWERS_ON_TOWERS]
    + [("factor", q, grp) for q, grp in DEEP])


def argv_for(case):
    cmd, q, grp = case
    argv = [cmd, "--q", str(q), "--group", grp, "--format", "json"]
    if cmd == "idempotents":
        argv += ["--include-noncentral", "--crt-fallback"]
    return argv


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


DIGESTS = {
    ('factor', 3, 'split:n=1,s=1'):
        "521ac93114f372c9f192ef59bb0f8f91fe80f669b70976449ed3de78d257d5c4",
    ('factor', 3, 'split:n=4,s=3'):
        "a99eb525457fd82af4a09400f440636f526621d4c7da6dc0f8b1b6adbdab9847",
    ('factor', 3, 'split:n=8,s=7'):
        "d1f58e34079c4e9d39b9b29ecad880a2d951e18583ec703081391c7807b240bb",
    ('factor', 3, 'nonsplit:n=1,s=1'):
        "11299ae23b8949da4bbaeefbbd315414f7e2ad151d41276fd49c2bf6161f425c",
    ('factor', 3, 'nonsplit:n=2,s=3'):
        "a99eb525457fd82af4a09400f440636f526621d4c7da6dc0f8b1b6adbdab9847",
    ('factor', 3, 'nonsplit:n=4,s=3'):
        "b322ebf9c22a32d7c9aab4e8ce787b9ca7fec82a87c3c2f3f8fd0c86b8ec342f",
    ('factor', 3, 'nonsplit:n=4,s=5'):
        "e236908d280b5defd365f73fcdad573bb01b7180c6c41f31a59db2065267ccff",
    ('factor', 3, 'nonsplit:n=5,s=9'):
        "06f530846338ba3219cfd375d798e2e5407a3de3532a17bb4b9dbea02493edeb",
    ('factor', 3, 'nonsplit:n=8,s=7'):
        "83ee260d8a65bb69fdd9d0730acd0aeb62ddd0d93aaa035452f5bb3ed93d80e2",
    ('factor', 3, 'nonsplit:n=8,s=9'):
        "9bb7c0e85d925f178a624f850b075d239a1d602988f5366d95c1917b5af45c7b",
    ('factor', 5, 'split:n=4,s=3'):
        "8adf523925aa01f0ec588aba54a04667c2733783a5a33d8614a186345f9ca6cb",
    ('factor', 5, 'nonsplit:n=2,s=3'):
        "8adf523925aa01f0ec588aba54a04667c2733783a5a33d8614a186345f9ca6cb",
    ('factor', 5, 'nonsplit:n=3,s=5'):
        "457c2c38e1ed536a60e680bceffdc7e701bf6dd0b55a64ae4666a84ee4b363fa",
    ('factor', 5, 'nonsplit:n=4,s=5'):
        "62c6bf746fc5e9bb90c26eec973e18d2de1dd70975b88a02fa48c4df67f6b66d",
    ('factor', 7, 'split:n=4,s=3'):
        "4efe06737be630643f9192c462ad85978f17e9924cbc234b226dd361af97a6f3",
    ('factor', 7, 'split:n=6,s=5'):
        "4a7e324d93f0fb831f2a70af6b9b9463c8f98298ae2ff82fc038aa192013ffff",
    ('factor', 7, 'nonsplit:n=3,s=5'):
        "4a7e324d93f0fb831f2a70af6b9b9463c8f98298ae2ff82fc038aa192013ffff",
    ('factor', 7, 'nonsplit:n=4,s=7'):
        "707562e907c5efa2637db89932f099cda60a3b65242535201bc8d02ce825dc45",
    ('factor', 7, 'nonsplit:n=6,s=11'):
        "e9a905620e8a72b724a1e539892280d3d8ee5698bc88f548f3d1004b46a49c54",
    ('factor', 7, 'nonsplit:n=12,s=23'):
        "135dd7dfe66f50b775d19e7e931414e5f236115a260abefc00bf8de2e70a18e9",
    ('factor', 9, 'split:n=7,s=6'):
        "7ef60d1d78b1a7bd03daaef492764b0a8925d79e7d778f43569da7338ce98702",
    ('factor', 9, 'split:n=10,s=9'):
        "da262025aa20cfa4c4ee2aa8d8c8c392d3de42de57b5b24f73f3549895dbf53a",
    ('factor', 9, 'nonsplit:n=4,s=3'):
        "746f74fa399b48f0f903f82e637f33812dacc51fa53a03fe1749ddab37ec6f56",
    ('factor', 9, 'nonsplit:n=5,s=9'):
        "da262025aa20cfa4c4ee2aa8d8c8c392d3de42de57b5b24f73f3549895dbf53a",
    ('factor', 11, 'split:n=5,s=4'):
        "a935c53b42490bf61d31b8a5627032d0d8dcbdc8553a6ba627337827b007838d",
    ('factor', 11, 'nonsplit:n=3,s=5'):
        "338260d64a1426cd917d95cc6ea0ed10b977fad784e3d2446ca93092cb74581d",
    ('factor', 11, 'nonsplit:n=6,s=7'):
        "56cc728936dab83b658d54b0a0f5ff4b9e963b4c71c590ddade8cdd1771ee591",
    ('factor', 11, 'nonsplit:n=8,s=9'):
        "43684d9fecc50e97de8e04c37e05b5400c3368e991aac17240d10c7a6fa48e83",
    ('factor', 11, 'nonsplit:n=8,s=15'):
        "c9554ea91b5491f992d3e00f9254c3f43fb1ab69c9e7bd7dfd39b7e1d5c16689",
    ('factor', 13, 'split:n=3,s=2'):
        "4d7c29d5f1c0e3ed2b4df1a87c1d862a7dd029cb0979c3fcfb96bd1294ce4326",
    ('factor', 13, 'nonsplit:n=2,s=3'):
        "40dc4bc46e0813dfe95ad0399bf5c4715c479d4a36170a1baeba3e476b4c6a58",
    ('factor', 13, 'nonsplit:n=3,s=5'):
        "ef3564472c6f660985cdec4e0b23c8baa530812dae6d86ff435b7f597de0569a",
    ('decompose', 3, 'split:n=1,s=1'):
        "5db75679d9e2388764897cbd0fca07e1fd8ea0d39f0d394d6dc7f75b05aa5348",
    ('decompose', 3, 'split:n=4,s=3'):
        "d2ce4722ba7d8c7e705e755c4e50aed5588c68631e0b43b11b66f09a00f60f06",
    ('decompose', 3, 'split:n=8,s=7'):
        "cb54f0d51e3d98ef5e201c4b689a77ad73d1748d9edd885e31e94c8c3c84909e",
    ('decompose', 3, 'nonsplit:n=1,s=1'):
        "b8437fd5ee65114b1e445b8840bc3e2a6d08cf373010ee1cbbb5884568b5a42f",
    ('decompose', 3, 'nonsplit:n=2,s=3'):
        "c7218f0d65ddb2f207c013069793be0a7dc0a87b7a3376859adc09fb601972ae",
    ('decompose', 3, 'nonsplit:n=4,s=3'):
        "7788a75367cb7655ce5d23c24bb23a2b204aee566a6ca642fd950a01cdc10bd2",
    ('decompose', 3, 'nonsplit:n=4,s=5'):
        "4a584553e20492490ef5f704265c0d6ddf608a06381e602b8d3ab3f2d929c2ed",
    ('decompose', 3, 'nonsplit:n=5,s=9'):
        "2ab9e3d9c075202a91646ade0250a23e0fc9c4018e2c14e3e30eec5565dac7f8",
    ('decompose', 3, 'nonsplit:n=8,s=7'):
        "d2f081530373bf5afee5a46d9c8de75a3b48a5023e063b9123d7feb1ced33f39",
    ('decompose', 3, 'nonsplit:n=8,s=9'):
        "e91e4b05c8a4232ff431a7ba74c6dcc8ccf53dc5abbd65c4b752ae0de41b8e90",
    ('decompose', 5, 'split:n=4,s=3'):
        "1ad6ec98425e1d6fb9c733aa201438c2fb707073ec13bc89d981ebcd07b09a09",
    ('decompose', 5, 'nonsplit:n=2,s=3'):
        "5d59a518b94c5254754f2ad1fb1b3a4912e94342680d3c88dab09e2734572064",
    ('decompose', 5, 'nonsplit:n=3,s=5'):
        "ac79e1e052641c9f246d7cc971db956ed0c9b2d1243733c42ae8d7572dc25bd7",
    ('decompose', 5, 'nonsplit:n=4,s=5'):
        "09fb7382964a4ff6f58abe51f7338331d9c4dafadd2d5d33025a8f9c406e4c30",
    ('decompose', 7, 'split:n=4,s=3'):
        "d52b79739bdb306345fd155a4b33b54c8fa3fb74a3c6bce187ad6a75acb2ff49",
    ('decompose', 7, 'split:n=6,s=5'):
        "41477d8b80f4eeabeff09a70d5ef09c1af349c44744dca06ab94d14976cacdca",
    ('decompose', 7, 'nonsplit:n=3,s=5'):
        "fdcb1d5d3cb40c9ea4a49c4acefefa5076444bb87e8157727d564a34696012b0",
    ('decompose', 7, 'nonsplit:n=4,s=7'):
        "5fffb3f979e0b0aa09e19bce02f2dd3304ab55cc64205ab2b3ee3e42117d7c7e",
    ('decompose', 7, 'nonsplit:n=6,s=11'):
        "dd02dcbdbc09b3c965811a9f118f384399648465eda2e559b8b7769700052824",
    ('decompose', 7, 'nonsplit:n=12,s=23'):
        "50f30519347fc1d111d2330e8e0bcb7b70be6f53c5fb9f0b5f389becc784c522",
    ('decompose', 9, 'split:n=7,s=6'):
        "d41219e3268f87ff0d09cf57ad3877125885a080be04881a6aa873f4a9f40c45",
    ('decompose', 9, 'split:n=10,s=9'):
        "ad139c1429b8f9dd67d5839aaa5b2a329c980284e1d6ef0e827cb30d1fa50131",
    ('decompose', 9, 'nonsplit:n=4,s=3'):
        "7a11daefdf3d05dc8765860964502e87c6d55fcdb1949217a07f4987c3d1fc03",
    ('decompose', 9, 'nonsplit:n=5,s=9'):
        "38d2ee915597740bfa7d87cd320a15728b492f8de8e2f2ebf6dba9b5b5f21f45",
    ('decompose', 11, 'split:n=5,s=4'):
        "2b489180959f6cc9f3d87f3e1b1e7af792c953e5f62721aa4fc22a910d6ea2c4",
    ('decompose', 11, 'nonsplit:n=3,s=5'):
        "127965b00e58d69bee0fcde7e3e955654ac6300f1089d73c7ebdd363e5eb13fc",
    ('decompose', 11, 'nonsplit:n=6,s=7'):
        "22f811470865f898156630948f76056836c590364d77c2d5788e86cc402ca0c2",
    ('decompose', 11, 'nonsplit:n=8,s=9'):
        "0ec34d9e764b94371306ae80e34741fbcb715185912d01692bc560e6fe0c55a0",
    ('decompose', 11, 'nonsplit:n=8,s=15'):
        "fef935de376f1780df883a54e270ba2c473336546161f199cf2144d2632707e2",
    ('decompose', 13, 'split:n=3,s=2'):
        "d57e02b59b03c23867020e248a3ba92e895b4ac7062891a91a526bd8c0998345",
    ('decompose', 13, 'nonsplit:n=2,s=3'):
        "36bbd4bff0eea6278fbd3c16f7c1efaf7f272e1634409b95a0191afa24c4043b",
    ('decompose', 13, 'nonsplit:n=3,s=5'):
        "053056bf3ae8abb473f360bb19fc40336e87626c72da82d7ca9dbbae97dccbd9",
    ('idempotents', 3, 'split:n=1,s=1'):
        "d9942d70b7063bf6eef04422c247d1f146f7aee47e891eb0f6d0f48561ed0221",
    ('idempotents', 3, 'split:n=4,s=3'):
        "4c806f7cdb09d09d618439d6889fc8a2128048ff5a3ff8ab86a977188841a3d7",
    ('idempotents', 3, 'split:n=8,s=7'):
        "5ed001743ab0d03330dcb1b4135e17880a3be4eac8c77d787503fed150a34bcc",
    ('idempotents', 3, 'nonsplit:n=1,s=1'):
        "b950e940800f01857f41af8baa77ecb22eb68ddd8acb984588b9c46966093edc",
    ('idempotents', 3, 'nonsplit:n=2,s=3'):
        "cf5c4d33466cc041ee94c16c671acfeb4c7603a6dd134194175b334a0673dbdb",
    ('idempotents', 3, 'nonsplit:n=4,s=3'):
        "f061dfeb9cc9648142a87d488d1d079c71a61028c59e79911acf57b479ab7171",
    ('idempotents', 3, 'nonsplit:n=4,s=5'):
        "00828bcd45512a5c2cfca9c6bd14ed407c085d693825df2da604a84a4954a24a",
    ('idempotents', 3, 'nonsplit:n=5,s=9'):
        "437921dfc3fd83dfffb60c2f8415107bf838aaf043e0b705864dbb68b1d4f2c3",
    ('idempotents', 3, 'nonsplit:n=8,s=7'):
        "2ceba98d228f6148caf8d1a937129f658f8254868491e534b0086d082834a4f6",
    ('idempotents', 3, 'nonsplit:n=8,s=9'):
        "521ef3eaf98e227cb7fc9615c499b82aa55858ac970e9f97a5143eb33a35a5ba",
    ('idempotents', 5, 'split:n=4,s=3'):
        "484c4f695b08879748038ccad9445102115b1d1f017cb2d66afe30dbec0fb7ea",
    ('idempotents', 5, 'nonsplit:n=2,s=3'):
        "5729b3462f41367242878b6fc3c9c1f815b4bd19f8b6e41731ebe394eb4a6c91",
    ('idempotents', 5, 'nonsplit:n=3,s=5'):
        "309f83c5fc1c5c7eeccbe990a2d984b3704e14307b3797f32041b84630d02877",
    ('idempotents', 5, 'nonsplit:n=4,s=5'):
        "9edd0c951ca193adbbfbd01f3a1632fcd716a265280dc78a4261444555ab701a",
    ('idempotents', 7, 'split:n=4,s=3'):
        "d2554d95fae115be3ebad76eb02765a850310698a953f2a5dca1baf7516542f4",
    ('idempotents', 7, 'split:n=6,s=5'):
        "914585a0159812dd1512f4adc68daca277816bdd90e199510f8c0139841e7225",
    ('idempotents', 7, 'nonsplit:n=3,s=5'):
        "154f07463319c78a39003f75dcc8fa1018add0bf084eba0c41670985d35ee64c",
    ('idempotents', 7, 'nonsplit:n=4,s=7'):
        "136427ff3d87e93bfc6fbeac7bd64a9778a30bdd6fafc1b91c3990369e972d3d",
    ('idempotents', 7, 'nonsplit:n=6,s=11'):
        "ecfa689057240f152f6cdff780277e5680c9e68398a5c431fc75f620c7344d3a",
    ('idempotents', 7, 'nonsplit:n=12,s=23'):
        "04116f871a6b042c6fbbb8aa5c70f08a4f9e716962f87ac4863b8a6e09938380",
    ('idempotents', 9, 'split:n=7,s=6'):
        "c37c252fafd6ebe743724bf2d8beff277fde1340a218287346b236073147048a",
    ('idempotents', 9, 'split:n=10,s=9'):
        "2655129dcbd5b9927e356e75b473b1b037448a1cd699eec9423047cedfd6edc9",
    ('idempotents', 9, 'nonsplit:n=4,s=3'):
        "e4985b3d03b3e59d729179e9d04aa5cafd71c0c7e235002b2d29d215b664e671",
    ('idempotents', 9, 'nonsplit:n=5,s=9'):
        "94d725c3e44358d63a911c3d9baa1f20c65e22b7e781ec4d5c0769fe9b3a5eab",
    ('idempotents', 11, 'split:n=5,s=4'):
        "ecfc66ce7f27af1348ac71cf722d5f87e5bc1b9fbc3c301f0716ab1aea79c4d5",
    ('idempotents', 11, 'nonsplit:n=3,s=5'):
        "d18755d4b71caaa68a56c365d828c2a718be78a9ca0c80c40954d0c3a213c458",
    ('idempotents', 11, 'nonsplit:n=6,s=7'):
        "59830935c06b3e825b00b0a32e77896d6f5efe5954a9246cdd4581a8345cef00",
    ('idempotents', 11, 'nonsplit:n=8,s=9'):
        "79d581a75b346c7fa11cf69b66879bb3a9f30d5c00d7a2d85e2285f0670b37c0",
    ('idempotents', 11, 'nonsplit:n=8,s=15'):
        "aaee4596af437fa0a51c534021662281372e2a7d2c285b8b409cd4149414f628",
    ('idempotents', 13, 'split:n=3,s=2'):
        "38c21d4ac8eaf413fb0a86e07a08af9cceaafdf3bc40cba2469ccafd0475a9c3",
    ('idempotents', 13, 'nonsplit:n=2,s=3'):
        "19d619b110481687817ee8a12765acfd2aecd6008351d59afc6de81c4e410dfb",
    ('idempotents', 13, 'nonsplit:n=3,s=5'):
        "35434b5a514082aa33aa3c341d15d2762b5a5e8a7efa3ffa5f13c4e397ab428c",
    ('factor', 3, 'split:n=17,s=16'):
        "2c43e11d64af5fc98c897fa75097dc0a4c2e7aa68e18ad34ca8988dda2e0214d",
    ('factor', 5, 'nonsplit:n=17,s=1'):
        "32295edbeb49a859421d91b99b9825f34e5e5a01cb7c0ca0bbb022b07c3d4dbf",
    ('factor', 3, 'split:n=19,s=1'):
        "dddf5861c259b173639093a3e13d6be084dddc306cba7ef05ee368fe7b5ea3a5",
    ('factor', 5, 'split:n=23,s=1'):
        "f87f48d32619f99e05c021099a3d64f3a88931803180e879eab3a8a81e397d45",
    ('factor', 7, 'split:n=17,s=1'):
        "dab1c1172fd3be7dcd8aa4af018b9d7314634487689f98441339765bfdccad21",
    ('factor', 9, 'split:n=17,s=1'):
        "c87fbd3203618554713a12268f4f6847a589f7f69047c7d4ef49e3db854a1253",
    ('factor', 11, 'split:n=23,s=1'):
        "bb01fb3f0a6bfc9cafdcb46705ff99ccd1695b85225c92ac703901fa89990993",
    ('factor', 13, 'split:n=19,s=1'):
        "787a3019375b9bf65bfdad36df568a7dc9a22c38256af66e4e6737f934ac7a12",
    ('factor', 27, 'nonsplit:n=5,s=9'):
        "2e3c63e087ce83d6be35f7e52bdd3b149eb6f18949cbc02cffcb62ee3f677c45",
    ('factor', 343, 'nonsplit:n=1,s=1'):
        "f5c6e76eda3fcb09a28eafc3cc2dfec1781bd1e727bb40d72a02e03ae1b79ee9",
    ('decompose', 27, 'nonsplit:n=5,s=9'):
        "76464675ea7cbab43eb690273c9e6a539fb6b2796539acaa46756b05f9f58ccf",
    ('decompose', 343, 'nonsplit:n=1,s=1'):
        "b0e9b68ba56127d289273cf9fecf7df78fde6d75aa88b59f5693a130f2cccd30",
    ('idempotents', 27, 'nonsplit:n=5,s=9'):
        "11d061bc78d7bd646b275083488bc0cbefd56771c50afb2f1f375ce93ead8d4f",
    ('idempotents', 343, 'nonsplit:n=1,s=1'):
        "441853ca8f5a24de3eb142524806d5757c0e7b6231838d2564c3a30742026096",
}

BATTERY_DIGEST = "d898472a72c25dff33d9f7e4d803258a42b7d0eae24dc1447e1f522857fe2cf9"


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-q{c[1]}-{c[2]}")
def test_cli_json_digest(capsys, case):
    code = cli.main(argv_for(case))
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert _sha256(out) == DIGESTS[case]


@pytest.mark.parametrize("case", [c for c in CASES if c[0] == "idempotents"
                                  and c[1:] not in TOWERS_ON_TOWERS],
                         ids=lambda c: f"q{c[1]}-{c[2]}")
def test_idempotents_pass_the_independent_check(capsys, case):
    """perfbench.checks reads only each entry's flat array and shares no code
    with wedderburn, so every idempotent must be recoverable from flat."""
    _, q, grp = case
    assert cli.main(argv_for(case)) == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert check_idempotents(*parse_group(grp), q, payload) == []


@pytest.mark.parametrize("q, grp", TOWERS_ON_TOWERS)
def test_verify_passes_on_the_towers_on_towers(capsys, q, grp):
    """perfbench.checks raises on q = 27 and 343, so the library's own seven
    grades check these instead."""
    code = cli.main(["verify", "--q", str(q), "--group", grp])
    grades = capsys.readouterr().out.splitlines()[1:]
    assert code == cli.EXIT_OK
    assert [line.split(": ")[1] for line in grades] == ["pass"] * 7


def test_corpus_reaches_a_quad_over_a_tower_on_a_tower():
    """The field of some quad component is a quadratic extension of a factor
    field whose own base is neither F_p nor F_p[u]/(N)."""
    bases = set()
    for q, grp in INSTANCES + TOWERS_ON_TOWERS:
        for comp in decompose(make_group(*parse_group(grp), q)).components:
            if comp.source.frame == "quad":
                bases.add(comp.image_x[0][0].field.base.base)
    assert any(isinstance(F, ExtField) for F in bases)


def test_battery_json_digest(battery_result):
    text = json.dumps(battery_result.to_json(), indent=2, sort_keys=True) + "\n"
    assert _sha256(text) == BATTERY_DIGEST


def test_corpus_reaches_every_route():
    """Every route to a 2x2 self-involutive component's non-central pair has
    a digest, so a corpus edit cannot drop one silently."""
    routes = set()
    for q, grp in INSTANCES:
        g = make_group(*parse_group(grp), q)
        dec = decompose(g)
        for comp in dec.components:
            if comp.source.kind == SELF_INVOLUTIVE:
                way = route(g, dec.report.factors[comp.source.position])
                assert way.startswith(comp.source.frame), (q, grp, way)
                routes.add(way)
    assert routes == {"sigma-tau", "eta-omega, sqrt(-1) in F_q", "eta-omega, xi^{n/2}",
                      "eta-omega by interpolation", "theta-omega by interpolation"}
