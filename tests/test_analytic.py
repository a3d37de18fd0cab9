"""Tests for the closed-form rate approximations.

Ground truth throughout is the adaptive-integration engine in
``crul.oracle`` (independent route over the raw 2-D region integrals),
plus a handful of values frozen from scipy adaptive quadrature runs.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, strategies as st

from crul import analytic
from crul.channel import ScenarioConfig
from crul.crosscheck import ARBITRATION_REL_TOL, relative_deviation
from crul.oracle import (
    FULL_QUADRANT,
    RegionSpec,
    case_regions,
    case_terms,
    ergodic_rate_oracle,
    normalized,
    restricted_expectation,
)
from crul.panels import panel_integral
from crul.protocols import ProtocolKind, switch_offset
from crul.specfun import expint_ei, gauss_laguerre

THETA_DEFAULT = 2.0**2.5 - 1.0


def scenario_at(gamma0_db: float) -> ScenarioConfig:
    return ScenarioConfig.from_snr_db(gamma0_db, gamma0_db)


def switch_edge(gamma_su, theta: float):
    """The switch curve in absolute PU SNR: ``theta`` plus its offset."""
    return theta + switch_offset(gamma_su, theta)


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def rsma_total(p: ScenarioConfig) -> float:
    """Rate splitting's closed-form total: its three region terms."""
    return (
        analytic.below_threshold_term(p)
        + analytic.split_band_term(p)
        + analytic.clear_channel_term(p)
    )


def sic_total(p: ScenarioConfig) -> float:
    """Pure SIC's fixed-rule total: its four region terms."""
    return (
        analytic.below_threshold_term(p)
        + analytic.reduced_power_term(p)
        + analytic.preferred_order_term(p)
        + analytic.clear_channel_term(p)
    )


@pytest.fixture(scope="module")
def p20() -> ScenarioConfig:
    return scenario_at(20.0)


@pytest.fixture(scope="module")
def unit_scenario() -> ScenarioConfig:
    return ScenarioConfig(lambda_pu=1.0, lambda_su=1.0, theta=THETA_DEFAULT)


# ------------------------------------------------------------ parameters


class TestParameters:
    def test_equal_rates_detection(self):
        assert analytic._equal_rates(ScenarioConfig(lambda_pu=1.0, lambda_su=1.0, theta=1.0))
        assert analytic._equal_rates(
            ScenarioConfig(lambda_pu=1.0, lambda_su=1.0 + 1e-12, theta=1.0)
        )
        assert not analytic._equal_rates(
            ScenarioConfig(lambda_pu=1.0, lambda_su=1.01, theta=1.0)
        )


# ------------------------------------------------------------ ratio density


class TestRatioDensity:
    def test_total_mass_is_protect_probability(self, p20, unit_scenario):
        # The density is defective: it carries exactly the probability of
        # the event that the primary misses its SINR target.
        for p in (p20, unit_scenario):
            mass = panel_integral(
                lambda z: analytic.ratio_density(z, p), 1.0 / p.lambda_su, 1e-10
            )
            expected = 1.0 - math.exp(-p.lambda_pu * p.theta)
            assert mass == pytest.approx(expected, abs=1e-6)

    def test_matches_cdf_finite_difference(self, unit_scenario):
        p = unit_scenario

        def cdf(z: float) -> float:
            value, _ = scipy.integrate.quad(
                lambda y: p.lambda_pu
                * math.exp(-p.lambda_pu * y)
                * (1.0 - math.exp(-p.lambda_su * z * (y + 1.0))),
                0.0,
                p.theta,
                limit=200,
            )
            return value

        step = 1e-5
        derivative = (cdf(1.0 + step) - cdf(1.0 - step)) / (2.0 * step)
        assert analytic.ratio_density(1.0, p) == pytest.approx(derivative, abs=1e-6)

    def test_far_tail_underflows(self):
        p = ScenarioConfig(lambda_pu=1.0, lambda_su=1.0, theta=4.0)
        assert analytic.ratio_density(1e3, p) < 1e-300

    def test_rejects_negative_ratio(self, p20):
        with pytest.raises(ValueError):
            analytic.ratio_density(-0.1, p20)

    def test_array_matches_scalars(self, p20):
        grid = np.array([0.0, 0.3, 1.0, 7.5, 40.0])
        vec = analytic.ratio_density(grid, p20)
        assert vec.shape == grid.shape
        for z, v in zip(grid, vec):
            assert v == analytic.ratio_density(float(z), p20)

    @given(
        z=st.floats(min_value=0.0, max_value=100.0),
        lam_p=st.floats(min_value=1e-3, max_value=10.0),
        lam_s=st.floats(min_value=1e-3, max_value=10.0),
        theta=st.floats(min_value=0.05, max_value=10.0),
    )
    def test_derived_density_nonnegative(self, z, lam_p, lam_s, theta):
        p = ScenarioConfig(lambda_pu=lam_p, lambda_su=lam_s, theta=theta)
        assert analytic.ratio_density(z, p) >= -1e-12

    @given(
        z=st.floats(min_value=0.0, max_value=50.0),
        lam=st.floats(min_value=0.01, max_value=5.0),
        theta=st.floats(min_value=0.1, max_value=8.0),
    )
    def test_variants_coincide_for_equal_rates(self, z, lam, theta):
        # The printed density's slip swaps the two rate parameters, so it
        # is invisible exactly when they coincide.
        p = ScenarioConfig(lambda_pu=lam, lambda_su=lam, theta=theta)
        derived = analytic.ratio_density(z, p)
        stated = analytic._stated_density(z, p)
        assert stated == pytest.approx(derived, rel=1e-9, abs=1e-300)

    def test_variants_differ_for_unequal_rates(self, p20):
        derived = analytic.ratio_density(1.0, p20)
        stated = analytic._stated_density(1.0, p20)
        assert rel_err(stated, derived) > 1e-3


# ------------------------------------------------------------ term: below threshold


class TestBelowThresholdTerm:
    def test_quadrature_matches_adaptive_integral(self, p20):
        quad = analytic.below_threshold_term(p20)
        integral = analytic.below_threshold_term_integral(p20)
        assert rel_err(quad, integral) < 1e-6

    def test_matches_region_oracle(self, p20):
        below = case_regions(p20.theta)["below"]
        reference = restricted_expectation(
            lambda x, y: np.log2(1.0 + y / (1.0 + x)),
            below,
            p20.lambda_pu,
            p20.lambda_su,
        )
        assert rel_err(analytic.below_threshold_term(p20), reference) < 1e-3
        assert rel_err(analytic.below_threshold_term_integral(p20), reference) < 1e-6

    def test_stated_variant_deviates_at_unequal_rates(self, p20):
        # This is the headline symptom of the swapped rate parameters:
        # at the reference geometry the stated value is off by ~57%.
        derived = analytic.below_threshold_term(p20)
        stated = analytic.below_threshold_stated(p20)
        assert rel_err(stated, derived) > 0.01


# ------------------------------------------------------------ term: split band


#: Relative gaps of lambda_su = lambda_pu (1 + gap) from lambda_pu.
NEAR_EQUAL_GAPS = (
    0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-7, -1e-7, 1e-5, -1e-5, 1e-3, -1e-3, 1e-2, -1e-2
)
#: The split-band term at (theta, lambda_pu) and each gap, evaluated in
#: mpmath at 60 digits from the same float inputs, with g(t) = exp(t) E1(t),
#: k(t) = g(t)/t, a = ls + lp theta and b = ls (1 + theta):
#: band = -exp(-lp theta) lp theta b (k(b) - k(a))/((b - a) ln 2), and k'(a)
#: in place of the divided difference where a = b.  The grid leaves out the
#: pairs with lp theta >= 700, where exp(-lp theta) underflows.
NEAR_EQUAL_BANDS = {
    (0.0001, 0.001): (
        1.05759681389827416688881614435563823853330345e-3, 1.05759681389707248951047244657240154581931015e-3,
        1.05759681389947584426716238967644513640620456e-3, 1.05759681269667860393209742240739808455697983e-3,
        1.05759681509986973239272555898682050137932968e-3, 1.05759669373872995870065122614610075183461096e-3,
        1.05759693405784384698412882583371253063944415e-3, 1.05758479806994187528841304385167287308965975e-3,
        1.05760882998132526926826973306558272234599647e-3, 1.05639649060440942344653782005897560593414661e-3,
        1.05879968438556689221708160739812911608360299e-3, 1.04570690963529341952397612574502921185339967e-3,
        1.06974146438478335089538702682686535505128606e-3,
    ),
    (0.0001, 1.0): (
        1.44232052623276681019667833857404582130854752e-4, 1.44232052623046432731029909155246652101828335e-4,
        1.44232052623506903747883529243813249098894792e-4, 1.44232052393048841008120505624273000355625387e-4,
        1.44232052853504496047634071086061582677833923e-4, 1.44232029600497426702224602704456127605181217e-4,
        1.44232075646061678193526366452214390072769329e-4, 1.44229750373905910407427693983881019433141445e-4,
        1.44234354930331594456660650697198669855567696e-4, 1.44002112891838742818497080083495052511983032e-4,
        1.4446256919712861811114034980827464758756407e-4, 1.41958288713351319028763410784116112250768748e-4,
        1.46563508004361594200858587971685483964041435e-4,
    ),
    (0.0001, 3.0): (
        6.86154949575603604583792323560397124133086811e-5, 6.86154949574400101719041203943073349650990077e-5,
        6.86154949576806929310171183024597335490680909e-5, 6.86154948372207624466955453062496064440426765e-5,
        6.86154950778999409783462765412596330179958047e-5, 6.86154829236031513631691525442460700595619199e-5,
        6.86155069915207907625849043655414702117006609e-5, 6.86142915777840453019432600056176916016547355e-5,
        6.86166983695487477713530536247587319289402968e-5, 6.84953162357778880194603066791404400509665853e-5,
        6.87359958006865454730542309986573952415989691e-5, 6.74280130779566202923937812101350275864707396e-5,
        6.98351933680066754292073599378733598589351911e-5,
    ),
    (0.0001, 30.0): (
        9.14591789002149320822232731871156967060447105e-6, 9.14591789000360846492032826714020083414099042e-6,
        9.14591789003937583373357932862721519778102601e-6, 9.14591787213833827553896525232049542021354511e-6,
        9.1459179079046460755994626073624801481858886e-6, 9.14591610170640586604004116154018566172331124e-6,
        9.14591967833710327831708983287300367650460615e-6, 9.14573906111089310196307177634016149755168744e-6,
        9.14609672418054822575097739382286200716685765e-6, 9.12806094461842225065985609864721465143595753e-6,
        9.16382732007871547654862920250338714345127268e-6, 8.9696767473728278402879090688538186394856383e-6,
        9.32740832848361637220529783191802700420828405e-6,
    ),
    (0.0001, 1000.0): (
        2.60638218951926444163255501594174059651769884e-7, 2.60638218951405542520057415236795659489561027e-7,
        2.60638218952447286592900164831495166382721182e-7, 2.6063821843107844922583477704795421422930387e-7,
        2.60638219472774381448381954943757233852816403e-7, 2.60638166867140422374664539280571353673523924e-7,
        2.60638271036728019343738563648125284350359077e-7, 2.6063301055061018179280325173970595635161591e-7,
        2.60643427509368701719349042112505519452325824e-7, 2.60118150605689880422621003647230451380128652e-7,
        2.6115984856130462229330160388096580094994639e-7, 2.55506775449809846089447182527255401044099951e-7,
        2.65925814490390769993381809870608787344891681e-7,
    ),
    (0.1, 0.001): (
        9.4897879787597767053825635579762593339498079e-1, 9.48978797874989852016372793586335822484766373e-1,
        9.4897879787696548906014183412166389553219725e-1, 9.48978796888226403517965509814848430429655513e-1,
        9.48978798863728939474399048104588727203038952e-1, 9.48978699100860023606154989328384188699388406e-1,
        9.48978896651114475988987137950391957663047635e-1, 9.48968920459049948054952610524797342257670562e-1,
        9.48988675484490365019604903253352528986918375e-1, 9.47992003621545005093854788265420344883041891e-1,
        9.49967507983980902151925368493789187516789457e-1, 9.39196176923202513811091226696532358185381066e-1,
        9.58953021105703826991640588698840491512717179e-1,
    ),
    (0.1, 1.0): (
        1.12042300078311394936071779519043877844613599e-1, 1.12042300078144265220237323998661144864852869e-1,
        1.1204230007847850609843017760195238371457924e-1, 1.12042299911196522077351471771051491920905533e-1,
        1.12042300245426249630860423520123881168108896e-1, 1.12042283366827410267661589061213438015076136e-1,
        1.12042316789799256498626220418637076504338942e-1, 1.12040628949196150919392648562028634912878668e-1,
        1.12043971246381096608327939383934038019915436e-1, 1.11875379783977271763814143932688753111768939e-1,
        1.12209609917831765150209689349840654383735553e-1, 1.10390423123433421586150178208661775047917458e-1,
        1.13733135751616427331669593582075910695250886e-1,
    ),
    (0.1, 3.0): (
        4.30006591141445322228008454923448645934946099e-2, 4.30006591140739650106603946023679703637723693e-2,
        4.30006591142150889898242227662053894060761478e-2, 4.30006590435835872407669616792009070292685337e-2,
        4.30006591847054669360278894287464014443776033e-2, 4.30006520580514916823921858217077735416019461e-2,
        4.30006661702393358672787364644362031743350259e-2, 4.29999535135676293497899411305995372037610884e-2,
        4.30013647323524653505975026313658145275843765e-2, 4.29301862311290536295791227952770366131324851e-2,
        4.3071308307777937209064577256958427802242174e-2, 4.23037671937186112657269561561770910115151333e-2,
        4.3715184184862594703077531441560030177585497e-2,
    ),
    (0.1, 30.0): (
        3.79064663201764410211825111820437256909620896e-4, 3.79064663201072703266373936944600186182325747e-4,
        3.79064663202456035250002225631001813205718328e-4, 3.79064662510118896164300236341193275450603812e-4,
        3.79064663893409844247334749399131021838334569e-4, 3.79064594037228038600342274342261410502882901e-4,
        3.79064732366319652522342040616227995197189139e-4, 3.79057746841948538874523579461450544720969046e-4,
        3.79071579751106262604931756293312964295077392e-4, 3.78373964220135709185025288502596505722645656e-4,
        3.79757257446667572202963359002289741952880279e-4, 3.72241829240380520833023837198007593163182786e-4,
        3.86077049679433189055563496893601751887049463e-4,
    ),
    (0.1, 1000.0): (
        8.85889966297496512834295507774438882490536284e-48, 8.85889966295846515084796492861420511306279426e-48,
        8.85889966299146323020112709101153755610058481e-48, 8.85889964647668698339541208710994274046711373e-48,
        8.85889967947324144378692025671838831079347464e-48, 8.85889801314756093007887098884682801080011105e-48,
        8.85890131280282878378496733447117643611479868e-48, 8.85873468251825846540885018839286617910416508e-48,
        8.85906464804499806134995955897341273164238448e-48, 8.84242442461957536833481415102130510036641405e-48,
        8.87542103467880972019342887525667683733362569e-48, 8.69619519945457476856767097983022759027743851e-48,
        9.02621812475167486549801967413067901605718629e-48,
    ),
    (1.0, 0.001): (
        4.78451349482365773605549591734814650597217573, 4.78451349482072587853297797484625969339981792,
        4.78451349482658959357801727226367350409508276, 4.78451349189199982566291259413433396920016313,
        4.78451349775531564986002824006776838919267611, 4.78451320165788231453989264849485272057930557,
        4.78451378798946727706139018382350253747010498, 4.78448417841501558638248549489678192314912698,
        4.78454281157349415271968742165260987206275544, 4.78158354186440579004537798187583667263550894,
        4.7874468597331901763538944042693870285875634, 4.75536650868515366267422133769957663580719834,
        4.81400168840264480403796243608809813679860077,
    ),
    (1.0, 1.0): (
        1.69483536903049795059925177206484177887636794e-1, 1.69483536902876408413278371515462334310276119e-1,
        1.69483536903223162458498706880291781515902635e-1, 1.69483536729678547014833088944848588601562258e-1,
        1.69483537076421024142957661796534351765174888e-1, 1.6948351956592783067706303413611422126581312e-1,
        1.69483554240174600334141950719187075143519535e-1, 1.69481803205011934757260407116791930914861882e-1,
        1.69485270629689030396661301718910470448553339e-1, 1.69310308563170987516090859921151476793584953e-1,
        1.69657051257052211513545164693391585304706609e-1, 1.67764013061071273785454353790152713912791175e-1,
        1.7123166394730245376199589431689933330051439e-1,
    ),
    (1.0, 3.0): (
        9.82823115238830755590946672185418323404820109e-3, 9.82823115237720716758927401186333042387805824e-3,
        9.82823115239940630118818740594822065013551239e-3, 9.82823114128890507060728236139109231076822805e-3,
        9.82823116348770841818077700429775581959321445e-3, 9.8282300424482500885629879672494096412240527e-3,
        9.82823226232856512943198178476615619829589961e-3, 9.82812015937305975070643468086611911454290622e-3,
        9.82834214740461547920306265357276061094903086e-3, 9.81714174755778032962134329770152468145868242e-3,
        9.83934056785113961792714393126815884432933021e-3, 9.71822917059555422904000090722889407295809549e-3,
        9.94023434288645721997711724157452392483851028e-3,
    ),
    (1.0, 30.0): (
        2.19613708283584706216590302640680770729083585e-15, 2.19613708283314040635066738869306584352221543e-15,
        2.19613708283855339747719902753663562919721488e-15, 2.19613708012943162755090067860026159286541469e-15,
        2.19613708554226218160611153549487563875016402e-15, 2.19613681219435209473223091125682835772166108e-15,
        2.19613735347739500060444222028196739697624509e-15, 2.19611001895016836090264421319792726077609577e-15,
        2.19616414725444053063134743533786458662213541e-15, 2.19343332971035628659811398092756288514264261e-15,
        2.19884616511685363656373930067077304762408593e-15, 2.16933692132744424388932837319940014338485683e-15,
        2.22347020582523592236279396771042914820160843e-15,
    ),
    (4.66, 0.001): (
        6.62395073475016353765261345848577438608107292, 6.62395073474830135391659015549781493063602908,
        6.62395073475202572138863816126895215388605385, 6.62395073288810658586985076974151952232271079,
        6.62395073661222049083498076678435006060925118, 6.62395054854447447988039170659843252884585126,
        6.62395092095586659147115214999038570710085936, 6.6239321142505438463218578772847344641008515,
        6.62396935538974328829533097965167530491783352, 6.62208937719293683930013687258715531083143792,
        6.62581349191260985577595176093344843772754635, 6.60539974838958263508616815177355082357462871,
        6.64264168746303068325193980413487232828727158,
    ),
    (4.66, 1.0): (
        3.23090275439162289220621602275896917560711135e-3, 3.23090275438946902467346202126550978466068662e-3,
        3.23090275439377652063289721732110356896194801e-3, 3.23090275223794664591604324564304009929198452e-3,
        3.23090275654529890259955345590530217535072256e-3, 3.23090253902403184277765416243726771480816658e-3,
        3.23090296975924579493368017569283099339022672e-3, 3.2308812177913864226170027421029532565511754e-3,
        3.23092429131278317247917352381365157967340836e-3, 3.22875068157836789194182023978926302410644013e-3,
        3.2330580364478305368227225494548970950232873e-3, 3.20952510285027446216755601341128017729765456e-3,
        3.25260135453239227581322870224689319355196883e-3,
    ),
    (4.66, 3.0): (
        1.09561652646784339680039535093738592159876852e-7, 1.09561652646705217793974668360194040986638975e-7,
        1.09561652646863449854753719957236747237745046e-7, 1.09561652567669480489107850723288715127462292e-7,
        1.09561652725899187286646858925639273206173133e-7, 1.09561644735299705203366248110939940425909044e-7,
        1.09561660558270244421173874909188597769642702e-7, 1.09560861504608514956173835533153652195576272e-7,
        1.09562443801662797308112869557129193778306164e-7, 1.09482601250030758307092806236263039059870001e-7,
        1.09640831070092223119729034880785047318060405e-7, 1.08776798655383566269990105531973624227746244e-7,
        1.10359210364351629870330910146379118819735457e-7,
    ),
    (4.66, 30.0): (
        2.67715596527706724451014110719927024596151221e-63, 2.67715596527503260142629046253240601212119275e-63,
        2.67715596527910164666527004415108115557817452e-63, 2.67715596324260485892034519328020027993153684e-63,
        2.67715596731152939260862900180503141287600883e-63, 2.67715576183086232482494368433807815381766552e-63,
        2.6771561687233062974362860326146826275898754e-63, 2.67713562082674651452574263998230379946447624e-63,
        2.67717631007112943002693990377566989844099851e-63, 2.67512322014691816139763348532350892147603057e-63,
        2.67919214782736206702699211069959823423553621e-63, 2.6569816084414481877314954668696921658048733e-63,
        2.69767409562451778076249664141477753113939613e-63,
    ),
    (30.0, 0.001): (
        5.31914764074476162410417190082271186538377686, 5.31914764074391032982611246543473770965805379,
        5.31914764074561291838223226805754770580016492, 5.31914763989352530540070100583225410389760144,
        5.3191476415959979437393627754709778950559937, 5.31914755562113399660576739052642183395359248,
        5.31914772586839856880245380308383794420792659, 5.31913912842812143573364411598144944061472083,
        5.31915615315457362660909140800669885705774654, 5.31829686993579506553636339553012804522540235,
        5.3199993432742710280550550580324257329845736, 5.31068151960700565345370269141567342965404575,
        5.32770693943903991251977078028687286214803483,
    ),
    (30.0, 1.0): (
        8.05239043606382718341907770262954781356352502e-15, 8.0523904360595907343393956768451259199731237e-15,
        8.05239043606806316220024621239789458317935246e-15, 8.05239043182775434643168627931537897596898392e-15,
        8.05239044029989955787093284866830896676546195e-15, 8.05239001245661671354039552703368101045897288e-15,
        8.05239085967111481284503790030231420557045884e-15, 8.0523480757270686237283958096987571078598496e-15,
        8.05243279717688373083443560969494467235111781e-15, 8.04815824130495959592202268895868947271186809e-15,
        8.05663039381460291928158915603034894963229938e-15, 8.01041413223286515876175772731807947000833116e-15,
        8.09514311164157986464583872893498348824643299e-15,
    ),
    (30.0, 3.0): (
        2.421654549584922026446658838158492870149844e-41, 2.42165454958361327866472107622651582325723668e-41,
        2.42165454958623058051223108585228600203091092e-41, 2.42165454827629047555138522249824025123112959e-41,
        2.42165455089355338607143485423999997290576789e-41, 2.42165441872178989209274575819821426300669889e-41,
        2.42165468044807861950374347025358360236371344e-41, 2.42164146339277583399930873464768545377123126e-41,
        2.42166763602165505699308903644718298866829411e-41, 2.42034713987038554596130558348998920677561344e-41,
        2.42296440517216624518173850735330671611909004e-41, 2.40868933344572375803010886093031451123228625e-41,
        2.4348643766544820709223070731699029220802554e-41,
    ),
}


class TestSplitBandTerm:
    @pytest.mark.parametrize("gamma0_db", [0.0, 20.0])
    def test_matches_region_oracle(self, gamma0_db):
        p = scenario_at(gamma0_db)
        band = case_regions(p.theta)["band"]
        reference = restricted_expectation(
            lambda u, y: np.log2((1.0 + band.pu_origin + u + y) / (1.0 + p.theta)),
            band,
            p.lambda_pu,
            p.lambda_su,
        )
        assert rel_err(analytic.split_band_term(p), reference) < 1e-6

    @pytest.mark.parametrize("theta", [1.0, THETA_DEFAULT])
    def test_equal_rate_branch_matches_region_oracle(self, theta):
        p = ScenarioConfig(lambda_pu=1.0, lambda_su=1.0, theta=theta)
        band = case_regions(p.theta)["band"]
        reference = restricted_expectation(
            lambda u, y: np.log2((1.0 + band.pu_origin + u + y) / (1.0 + p.theta)),
            band,
            p.lambda_pu,
            p.lambda_su,
        )
        assert rel_err(analytic.split_band_term(p), reference) < 1e-6

    def test_band_continuity_at_equal_rates(self):
        # Approaching coincidence from both sides must bracket the limit.
        equal = ScenarioConfig(lambda_pu=1.0, lambda_su=1.0, theta=THETA_DEFAULT)
        low = ScenarioConfig(lambda_pu=1.0, lambda_su=1.0 - 1e-6, theta=THETA_DEFAULT)
        high = ScenarioConfig(lambda_pu=1.0, lambda_su=1.0 + 1e-6, theta=THETA_DEFAULT)
        center = analytic.split_band_term(equal)
        bracket = sorted((analytic.split_band_term(low), analytic.split_band_term(high)))
        assert bracket[0] <= center <= bracket[1]

    def test_equal_rates_frozen_value(self):
        # Frozen from the closed form in mpmath at 40 digits, -exp(-1) 2 k'(2)
        # / ln 2 with k'(m) = (g(m)(m - 1) - 1)/m**2; a 12-digit scipy
        # quadrature of the band agrees to 1e-13.
        p = ScenarioConfig(lambda_pu=1.0, lambda_su=1.0, theta=1.0)
        assert analytic.split_band_term(p) == pytest.approx(0.16948353690304980, rel=1e-14)

    @pytest.mark.parametrize("lam_s,bound", [(1.0, 2e-6), (2.0, 1e-6)])
    def test_band_vanishes_with_threshold(self, lam_s, bound):
        # The band's probability, and so its term, is O(theta).
        p = ScenarioConfig(lambda_pu=1.0, lambda_su=lam_s, theta=1e-6)
        assert 0.0 < analytic.split_band_term(p) < bound

    @pytest.mark.parametrize(
        "theta,lam_p,frozen",
        [
            (
                THETA_DEFAULT,
                1.0,
                (0.0032421435942770924552, 0.0032421199640285998492, 0.003242114712914541216, 0.0032420910831365036618),
            ),
            (
                0.1,
                3.0,
                (0.042985139973170455528, 0.042978159142075589021, 0.042976608080713886069, 0.042969629359292740429),
            ),
        ],
    )
    def test_both_sides_of_the_midpoint_switch(self, theta, lam_p, frozen):
        # Relative widths (b - a)/b of about 2e-5, 2.9e-5, 3.1e-5 and 4e-5
        # straddle MIDPOINT_REL_GAP; frozen from the divided difference in
        # mpmath at 60 digits.
        widths = (2e-5, 2.9e-5, 3.1e-5, 4e-5)
        assert widths[1] < analytic.MIDPOINT_REL_GAP < widths[2]
        for width, value in zip(widths, frozen, strict=True):
            lam_s = lam_p * (1.0 + width * (1.0 + theta) / theta)
            p = ScenarioConfig(lambda_pu=lam_p, lambda_su=lam_s, theta=theta)
            assert analytic.split_band_term(p) == pytest.approx(value, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("theta,lam_p", list(NEAR_EQUAL_BANDS))
    def test_keeps_its_digits_at_near_equal_rates(self, theta, lam_p):
        # The divided difference cancels as b - a = theta (lambda_su -
        # lambda_pu) shrinks against b; it once lost up to 15% here.
        for gap, frozen in zip(NEAR_EQUAL_GAPS, NEAR_EQUAL_BANDS[theta, lam_p], strict=True):
            p = ScenarioConfig(lambda_pu=lam_p, lambda_su=lam_p * (1.0 + gap), theta=theta)
            assert analytic.split_band_term(p) == pytest.approx(frozen, rel=1e-9, abs=0.0)

    def test_stated_variant_deviates(self, p20):
        band = case_regions(p20.theta)["band"]
        reference = restricted_expectation(
            lambda u, y: np.log2((1.0 + band.pu_origin + u + y) / (1.0 + p20.theta)),
            band,
            p20.lambda_pu,
            p20.lambda_su,
        )
        assert rel_err(analytic.split_band_stated(p20), reference) > 0.01

    @pytest.mark.parametrize(
        "lam,theta,band,merged",
        [
            (0.01, 4.656854249492381, 0.78365302593387299359, 1.3892311753224722236),
            (1.0, 0.5, -0.41913654873497307433, -0.1576419042388575378),
        ],
    )
    def test_stated_forms_at_equal_rates_frozen(self, lam, theta, band, merged):
        # Frozen from the printed formulas, equal-rates branch, in mpmath at
        # 40 digits.  A 0.1% slip in that branch's Ei argument moves the
        # split band by 2.8e-4 and 1.4e-3, relative; no other test sees it.
        p = ScenarioConfig(lambda_pu=lam, lambda_su=lam, theta=theta)
        assert analytic.split_band_stated(p) == pytest.approx(band, rel=1e-12, abs=0.0)
        assert analytic.merged_tail_stated(p) == pytest.approx(merged, rel=1e-12, abs=0.0)


# ------------------------------------------------------------ term: clear channel


class TestClearChannelTerm:
    @pytest.mark.parametrize("gamma0_db", [0.0, 20.0])
    def test_matches_region_oracle(self, gamma0_db):
        p = scenario_at(gamma0_db)
        tolerant = case_regions(p.theta)["clear"]
        reference = restricted_expectation(
            lambda x, y: np.log2(1.0 + y),
            tolerant,
            p.lambda_pu,
            p.lambda_su,
        )
        assert rel_err(analytic.clear_channel_term(p), reference) < 1e-6

    def test_stated_variant_is_derived_times_stray_exponential(self, p20):
        # The stated form carries exp(-lambda_pu*theta) twice; everything
        # else is identical, so the ratio pins the slip exactly.
        derived = analytic.clear_channel_term(p20)
        stated = analytic.clear_channel_stated(p20)
        stray = math.exp(-2.0 * p20.lambda_pu * p20.theta)
        assert stated == pytest.approx(derived * stray, rel=1e-12)
        assert rel_err(stated, derived) > 0.01


#: The split-band and clear-channel closed forms at weak secondaries (and a
#: strong primary), evaluated in mpmath at 50 digits with g(x) = exp(x) E1(x),
#: a = ls + lp theta and b = ls (1 + theta):
#: band = exp(-lp theta) lp (b g(a)/a - g(b)) / ((ls - lp) ln 2) and
#: clear = exp(-lp theta) ls g(a) / (a ln 2).
WEAK_SECONDARY_TERMS = {
    (20.0, -100.0): (4.7164669977777973236e-23, 3.4426279198687671613e-11),
    (40.0, -80.0): (4.9389998758791400811e-21, 3.6050583790915119093e-9),
    (100.0, 0.0): (4.0571222415021446486e-11, 0.29769384561864503871),
}


@pytest.mark.parametrize("primary_db,secondary_db", list(WEAK_SECONDARY_TERMS))
def test_band_and_clear_channel_keep_their_digits(primary_db, secondary_db):
    # Each piece of the band is O(1/ls) and they cancel to O(1/ls**2), and
    # exp(x + log E1(x)) cancels two numbers of size x.
    p = ScenarioConfig.from_snr_db(primary_db, secondary_db)
    band, clear = WEAK_SECONDARY_TERMS[primary_db, secondary_db]
    assert analytic.split_band_term(p) == pytest.approx(band, rel=1e-13, abs=0.0)
    assert analytic.clear_channel_term(p) == pytest.approx(clear, rel=1e-13, abs=0.0)


# ------------------------------------------------------------ totals: rate splitting


class TestRsmaTotal:
    @pytest.mark.parametrize("gamma0_db", [0.0, 10.0, 20.0, 30.0, 40.0])
    def test_matches_full_oracle(self, gamma0_db):
        p = scenario = ScenarioConfig.from_snr_db(gamma0_db, gamma0_db)
        reference = ergodic_rate_oracle(ProtocolKind.CR_RSMA, scenario)
        assert rel_err(rsma_total(p), reference) < 1e-3

    def test_node_count_converged(self, p20):
        # The stored order-100 rule against order 120: the approximation is
        # already settled well past the headline tolerance.
        fine_rule = gauss_laguerre(120)
        density = analytic.ratio_density(fine_rule.nodes, p20)
        fine_below = float(
            np.sum(fine_rule.integration_weights * np.log2(1.0 + fine_rule.nodes) * density)
        )
        coarse = rsma_total(p20)
        fine = coarse - analytic.below_threshold_term(p20) + fine_below
        assert rel_err(coarse, fine) < 1e-6

    def test_huge_threshold_collapses_to_first_term(self):
        # With an unattainable SINR target the protected event fills the
        # quadrant and the total is the plain interference-limited rate.
        p = ScenarioConfig(lambda_pu=1.0, lambda_su=1.0, theta=1e6)
        reference = restricted_expectation(
            lambda x, y: np.log2(1.0 + y / (1.0 + x)),
            FULL_QUADRANT,
            1.0,
            1.0,
        )
        assert rel_err(rsma_total(p), reference) < 1e-3

    def test_vanishing_secondary_snr(self):
        p = ScenarioConfig(lambda_pu=1.0, lambda_su=1e6, theta=THETA_DEFAULT)
        assert abs(rsma_total(p)) < 1e-6

    def test_stated_total_deviates(self, p20):
        scenario = ScenarioConfig.from_snr_db(20.0, 20.0)
        reference = ergodic_rate_oracle(ProtocolKind.CR_RSMA, scenario)
        stated = analytic.below_threshold_stated(p20) + analytic.merged_tail_stated(p20)
        assert rel_err(stated, reference) > 0.01


# ------------------------------------------------------------ terms: pure SIC's band cells


def switch_level(gamma_pu, theta):
    """SU SNR where pure SIC's decoding order switches at PU SNR ``gamma_pu``."""
    return (1.0 + gamma_pu) * (gamma_pu / theta - 1.0)


#: Pure SIC's reduced-power and preferred-order terms at (primary,
#: secondary) dB and the default rate target, frozen from a two-dimensional
#: mpmath evaluation of each region integral at 30 digits: the primary SNR
#: outer, the secondary SNR inner between the cell's own bounds, and each
#: outer integrand scaled to O(1) first, since mpmath's ``quad`` stops on
#: an absolute error estimate.
FROZEN_CELLS = {
    (20.0, 20.0): (1.5165472914944219, 0.13468115119340281),
    (40.0, 40.0): (4.9966145349985149, 0.053286465877219114),
    (-20.0, 60.0): (1.4156443283166754e-212, 8.3107944650783723e-202),
    (20.0, -60.0): (3.8827044866240094e-15, 2.5049707377423503e-16),
    (80.0, 90.0): (21.549680759082382, 0.0043246462122020033),
}


class TestPureSicCells:
    @pytest.mark.parametrize("point", list(FROZEN_CELLS))
    def test_integral_routes_match_frozen_values(self, point):
        # The rows' own routes: at (80, 90) dB a scaled fixed rule once
        # missed the preferred cell by 6.4e-4, where ``g``'s argument spans
        # many decades and one scale of the rule did not fit it.
        p = ScenarioConfig.from_snr_db(*point)
        reduced, preferred = FROZEN_CELLS[point]
        assert analytic.reduced_power_term(p) == pytest.approx(reduced, rel=1e-11, abs=0.0)
        assert analytic.preferred_order_term(p) == pytest.approx(preferred, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("gamma0_db", [20.0, 40.0])
    def test_routes_match_the_region_oracle(self, gamma0_db):
        # At 40 dB the unscaled order-100 rule once saw almost none of the
        # cells' mass; the adaptive panels keep it.
        p = scenario_at(gamma0_db)
        terms = case_terms(ProtocolKind.CR_SIC, p)
        assert rel_err(analytic.reduced_power_term(p), terms["reduced"]) < 1e-9
        assert rel_err(analytic.preferred_order_term(p), terms["preferred"]) < 1e-9

    def test_routes_land_on_the_region_oracle_off_the_figure_grids(self):
        # Weak to strong links on both sides, each rate target with its
        # power-normalized twin.  At the twins a scaled fixed rule was 356
        # times off the reduced cell at (20, 90) dB with a 0.5 bit/s/Hz
        # target, and 6.4e-4 off the preferred one at (100, 90) dB with 6.
        misses = []
        for pu, su, rate_th in itertools.product(
            (-20.0, 20.0, 40.0, 80.0, 100.0), (-100.0, -60.0, 0.0, 60.0, 90.0), (0.5, 2.5, 6.0)
        ):
            plain = ScenarioConfig.from_snr_db(pu, su, rate_threshold=rate_th)
            for p in (plain, normalized(plain)):
                terms = case_terms(ProtocolKind.CR_SIC, p)
                for name, route in (("reduced", analytic.reduced_power_term),
                                    ("preferred", analytic.preferred_order_term)):
                    deviation = relative_deviation(route(p), terms[name])
                    if not deviation <= 1e-9:
                        misses.append((pu, su, rate_th, p, name, deviation))
        assert misses == []

    def test_scaled_e1_array_matches_the_scalar(self):
        # Both branches, the series up to 4 and the continued fraction past it.
        args = np.geomspace(1e-12, 1e9, 97)
        assert (args <= 4.0).any() and (args > 4.0).any()
        np.testing.assert_allclose(
            analytic._scaled_e1_array(args), [analytic._scaled_e1(a) for a in args], rtol=1e-14
        )

    def test_empty_band_gives_zero_cells(self):
        p = ScenarioConfig(lambda_pu=1.0, lambda_su=1.0, theta=0.0)
        assert analytic.reduced_power_term(p) == 0.0
        assert analytic.preferred_order_term(p) == 0.0

    @staticmethod
    def stated_kernel(x: float, p: ScenarioConfig) -> float:
        """The printed reduced-power kernel at SU SNR ``x``, transcribed verbatim."""
        lam_p, lam_s, theta = p.lambda_pu, p.lambda_su, p.theta
        switch = switch_edge(x, theta)
        return -(lam_s * math.exp(-lam_s * x) / math.log(2.0)) * (
            math.log(x + 1.0) * math.exp(-lam_p * theta * (x + 1.0))
            + math.log(theta / switch) * math.exp(-lam_p * switch)
            + expint_ei(-lam_p * switch)
            - expint_ei(-lam_p * theta * (x + 1.0))
        )

    @pytest.mark.parametrize("lam_p,lam_s,theta", [(1.0, 1.0, 4.0), (0.3, 0.7, 2.0)])
    def test_stated_kernel_matches_inner_integral(self, lam_p, lam_s, theta):
        # The printed kernel integrates the reduced-power rate over the
        # primary span of the cell at SU SNR x; it is right as printed, so
        # the route table carries no stated route for it.
        p = ScenarioConfig(lambda_pu=lam_p, lambda_su=lam_s, theta=theta)
        for x in (0.5, 2.0, 17.0):
            value, _ = scipy.integrate.quad(
                lambda y: math.log2(y / theta) * lam_p * math.exp(-lam_p * y),
                switch_edge(x, theta),
                theta * (x + 1.0),
                epsabs=0.0,
                epsrel=1e-13,
                limit=300,
            )
            reference = value * lam_s * math.exp(-lam_s * x)
            assert self.stated_kernel(x, p) == pytest.approx(reference, rel=1e-9, abs=0.0)


class TestOrderSwitchGeometry:
    @pytest.mark.parametrize("theta", [1.0, THETA_DEFAULT])
    @pytest.mark.parametrize("x", [0.0, 2.0, 10.0])
    def test_radicand_identity(self, theta, x):
        # The switch threshold appears in two algebraic dressings; their
        # radicands are identical polynomials.
        assert (theta - 1.0) ** 2 + 4.0 * theta * (1.0 + x) == pytest.approx(
            (theta + 1.0) ** 2 + 4.0 * theta * x, rel=1e-15
        )
        alt = 0.5 * (theta - 1.0 + math.sqrt((theta - 1.0) ** 2 + 4.0 * theta * (1.0 + x)))
        assert switch_edge(x, theta) == pytest.approx(alt, rel=1e-15)

    @given(
        pu=st.floats(min_value=0.0, max_value=100.0),
        theta=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_threshold_inverts_boundary(self, pu, theta):
        pu_snr = pu + theta  # boundary only meaningful from the threshold up
        level = switch_level(pu_snr, theta)
        assert switch_edge(level, theta) == pytest.approx(
            pu_snr, rel=1e-12
        )

    def test_threshold_starts_at_protection_level(self):
        assert switch_edge(0.0, 4.0) == pytest.approx(4.0, rel=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            switch_edge(1.0, 0.0)
        with pytest.raises(ValueError):
            switch_edge(-1.0, 1.0)
        with pytest.raises(ValueError):
            switch_edge(np.array([1.0, -1.0]), 1.0)

    def test_arrays_match_scalars_bit_for_bit(self):
        # The oracle slices along arrays of secondary SNRs and the kernel
        # takes one at a time: both must see the same curve.
        su = np.array([0.0, 1e-12, 0.3, 2.0, 17.0, 1e6])
        edges = switch_edge(su, THETA_DEFAULT)
        assert [float(switch_edge(float(x), THETA_DEFAULT)) for x in su] == edges.tolist()
        np.testing.assert_allclose(switch_level(edges, THETA_DEFAULT), su, rtol=1e-12, atol=1e-15)


# ------------------------------------------------------------ totals: pure SIC


class TestSicTotal:
    @pytest.mark.parametrize("gamma0_db", [0.0, 10.0, 20.0])
    def test_matches_full_oracle_at_moderate_snr(self, gamma0_db):
        p = scenario = ScenarioConfig.from_snr_db(gamma0_db, gamma0_db)
        reference = ergodic_rate_oracle(ProtocolKind.CR_SIC, scenario)
        assert rel_err(sic_total(p), reference) < 1e-3

    @pytest.mark.parametrize("gamma0_db", [30.0, 40.0])
    def test_adaptive_routes_cover_high_snr(self, gamma0_db):
        # The below-threshold term's unscaled rule degrades here (tail
        # truncation); the adaptive kernel routes recover the oracle value.
        p = scenario = ScenarioConfig.from_snr_db(gamma0_db, gamma0_db)
        total = (
            analytic.below_threshold_term_integral(p)
            + analytic.reduced_power_term_integral(p)
            + analytic.preferred_order_term_integral(p)
            + analytic.clear_channel_term(p)
        )
        reference = ergodic_rate_oracle(ProtocolKind.CR_SIC, scenario)
        assert rel_err(total, reference) < 1e-6

    @pytest.mark.parametrize("gamma0_su_db", [30.0, 40.0, 50.0, 60.0])
    @pytest.mark.parametrize("gamma0_pu_db", [20.0, 40.0])
    def test_kernel_checks_hold_at_high_secondary_snr(self, gamma0_pu_db, gamma0_su_db):
        # The below-threshold term's fixed rule saturates here, so the rows
        # carry the oracle's term; the adaptive kernel integrals are the
        # evidence that the derived kernels are right where it cannot be.
        p = scenario = ScenarioConfig.from_snr_db(gamma0_pu_db, gamma0_su_db)
        terms = case_terms(ProtocolKind.CR_SIC, scenario)
        below = analytic.below_threshold_term_integral(p)
        reduced = analytic.reduced_power_term_integral(p)
        assert relative_deviation(below, terms["below"]) <= ARBITRATION_REL_TOL
        assert relative_deviation(reduced, terms["reduced"]) <= ARBITRATION_REL_TOL
        # The kernel integral runs along the primary SNR with the secondary
        # integrated out, and the oracle slices along the secondary, so the
        # two agree only to the integrator's tolerance, not bit for bit.
        assert analytic.preferred_order_term_integral(p) == pytest.approx(
            terms["preferred"], rel=1e-8
        )

    @pytest.mark.parametrize("gamma0_db", [0.0, 10.0, 20.0, 30.0, 40.0])
    def test_rate_splitting_dominates(self, gamma0_db):
        p = scenario_at(gamma0_db)
        assert (
            rsma_total(p) - sic_total(p)
            >= -1e-6
        )

    def test_overwhelming_primary_degenerates_to_interference_floor(self):
        # With the primary link essentially off the air the protocols all
        # collapse to the plain interference-limited expectation.
        p = ScenarioConfig(lambda_pu=1e3, lambda_su=1.0, theta=THETA_DEFAULT)
        reference = restricted_expectation(
            lambda x, y: np.log2(1.0 + y / (1.0 + x)),
            FULL_QUADRANT,
            1e3,
            1.0,
        )
        assert rel_err(sic_total(p), reference) < 1e-2
        assert rel_err(rsma_total(p), reference) < 1e-2


# ------------------------------------------------------------ rate difference


def gap_scenario(theta: float) -> ScenarioConfig:
    """Unit primary rate, secondary rate 2, protection threshold ``theta``."""
    return ScenarioConfig.from_snr_db(
        0.0,
        -10.0 * math.log10(2.0),
        secondary_distance=1.0,
        rate_threshold=math.log2(1.0 + theta),
    )


def ergodic_gap(scenario: ScenarioConfig) -> float:
    """Rate splitting less pure SIC from the oracle's terms, as release
    check 4 takes it: the band term less the two SIC cells that tile it."""
    cells = case_terms(ProtocolKind.CR_SIC, scenario)
    return case_terms(ProtocolKind.CR_RSMA, scenario)["band"] - cells["reduced"] - cells["preferred"]


class TestErgodicGap:
    """The protocol gap has no closed form; outside the split band the
    protocols act alike, so it is the band's term less the two SIC terms
    that tile the band."""

    @pytest.mark.parametrize("primary_db,secondary_db", [(0.0, 0.0), (10.0, 20.0), (20.0, 20.0)])
    def test_equals_difference_of_totals(self, primary_db, secondary_db):
        scenario = ScenarioConfig.from_snr_db(primary_db, secondary_db)
        difference = ergodic_rate_oracle(
            ProtocolKind.CR_RSMA, scenario
        ) - ergodic_rate_oracle(ProtocolKind.CR_SIC, scenario)
        assert ergodic_gap(scenario) == pytest.approx(difference, abs=1e-8)

    @pytest.mark.parametrize("gamma0_db", [0.0, 20.0, 40.0])
    def test_nonnegative(self, gamma0_db):
        scenario = ScenarioConfig.from_snr_db(gamma0_db, gamma0_db)
        assert ergodic_gap(scenario) >= 0.0

    def test_vanishes_with_threshold(self):
        coarse = ergodic_gap(gap_scenario(1e-2))
        fine = ergodic_gap(gap_scenario(1e-3))
        assert 0.0 <= fine < coarse
        assert fine < 1e-6
