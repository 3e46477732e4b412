//! The paper's motivating scenario (Section 1): biologists curating a
//! shared protein-protein interaction dataset — periodically checking out
//! versions, cleaning locally, committing into a branched network of
//! versions, and asking global questions across versions, e.g. "the
//! aggregate count of protein pairs with confidence > 0.9 per version" or
//! "versions with a bulk delete".
//!
//! Each curator works through their own [`Session`] on one shared
//! instance; every command is a typed request on the bus, including the
//! CSV ingest the paper's `init -f` flow uses.
//!
//! Run with `cargo run --example protein_curation`.

use orpheusdb::prelude::*;

fn main() {
    // The STRING-style interaction table of Figure 1 (confidence scaled
    // to integers like the paper's data), ingested exactly as `init
    // string -f string.csv -s string.schema` would: CSV text plus a
    // schema description, inlined into a typed request.
    let csv = "protein1,protein2,neighborhood,cooccurrence,coexpression\n\
               ENSP273047,ENSP261890,0,53,0\n\
               ENSP273047,ENSP235932,0,87,0\n\
               ENSP300413,ENSP274242,426,0,164\n\
               ENSP309334,ENSP346022,0,227,975\n\
               ENSP332973,ENSP300134,0,0,83\n\
               ENSP472847,ENSP365773,225,0,73\n";
    let schema = "protein1:text!pk\nprotein2:text!pk\n\
                  neighborhood:int\ncooccurrence:int\ncoexpression:int\n";

    let shared = SharedOrpheusDB::new(OrpheusDB::new());
    let mut admin = shared.session("admin").expect("session");
    let response = admin
        .dispatch(InitFromCsv::cvd("string").csv(csv).schema_text(schema))
        .expect("init");
    println!("{}", response.summary());

    // Curator 1 fixes a coexpression value (working through SQL).
    let mut curator1 = shared.session("curator1").expect("session");
    curator1
        .dispatch(Checkout::of("string").version(1u64).into_table("c1"))
        .expect("checkout");
    curator1
        .run("UPDATE c1 SET coexpression = 83 WHERE protein2 = 'ENSP261890'")
        .expect("fix");
    let v2 = curator1
        .dispatch(Commit::table("c1").message("fix ENSP261890 coexpression"))
        .expect("commit")
        .version()
        .expect("version");
    println!("curator1 committed {v2}");

    // Curator 2 works from v1 too (a branch), pruning weak interactions —
    // a "bulk delete" version. Note curator2 cannot touch curator1's
    // staged tables; sessions isolate them.
    let mut curator2 = shared.session("curator2").expect("session");
    curator2
        .dispatch(Checkout::of("string").version(1u64).into_table("c2"))
        .expect("checkout");
    curator2
        .run("DELETE FROM c2 WHERE neighborhood = 0 AND cooccurrence < 100 AND coexpression < 100")
        .expect("prune");
    let v3 = curator2
        .dispatch(Commit::table("c2").message("prune weak interactions"))
        .expect("commit")
        .version()
        .expect("version");
    println!("curator2 committed {v3}");

    // Merge the two branches (curator1's values take precedence).
    curator1
        .dispatch(
            Checkout::of("string")
                .versions([v2, v3])
                .into_table("merged"),
        )
        .expect("merge checkout");
    let v4 = curator1
        .dispatch(Commit::table("merged").message("merge fixes + pruning"))
        .expect("commit")
        .version()
        .expect("version");
    println!("merged into {v4}");

    // Global question 1: per-version counts of high-confidence pairs.
    let out = curator1
        .dispatch(Run::sql(
            "SELECT vid, count(*) AS strong FROM CVD string \
             WHERE coexpression > 70 GROUP BY vid ORDER BY vid",
        ))
        .expect("query")
        .into_rows()
        .expect("rows");
    println!("\nhigh-coexpression pairs per version:");
    for row in &out.rows {
        println!("  v{}: {}", row[0], row[1]);
    }

    // Global question 2: versions with a bulk delete (≥ 2 records removed
    // from their parent), answered from the version graph metadata.
    println!("\nbulk-delete versions:");
    shared.read(|odb| {
        let cvd = odb.cvd("string").expect("cvd");
        for m in &cvd.versions {
            for (p, w) in m.parents.iter().zip(&m.parent_weights) {
                let parent_size = cvd.meta(*p).expect("parent").num_records;
                let deleted = parent_size.saturating_sub(*w);
                if deleted >= 2 {
                    println!("  {} deleted {} records relative to {}", m.vid, deleted, p);
                }
            }
        }
    });

    // Global question 3: which versions still contain a specific record?
    let out = curator2
        .dispatch(Run::sql(
            "SELECT vid FROM CVD string WHERE protein1 = 'ENSP332973' GROUP BY vid ORDER BY vid",
        ))
        .expect("query")
        .into_rows()
        .expect("rows");
    println!(
        "\nversions containing ENSP332973 interactions: {}",
        out.rows
            .iter()
            .map(|r| format!("v{}", r[0]))
            .collect::<Vec<_>>()
            .join(", ")
    );

    // The full history, as the `log` command renders it.
    let log = admin.dispatch(Log::of("string")).expect("log");
    println!("\n{}", log.summary());
}
