//! Quickstart: open a database, create and load tables, and query them
//! with SQL — in process, no server.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use mmdb_session::{CommitPolicy, Engine, EngineOptions};
use mmdb_sql::SqlDb;

fn main() {
    // 1. An engine logging to a scratch directory (group commit, §5.2),
    //    and a SQL session over it.
    let dir = std::env::temp_dir().join(format!("mmdb-quickstart-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let engine = Engine::start(EngineOptions::new(CommitPolicy::Group, &dir)).unwrap();
    let db = SqlDb::open(&engine).unwrap();
    let mut sql = db.session();

    // 2. Create and load two tables; every row is durable once its
    //    statement returns.
    sql.execute("CREATE TABLE emp (id INT, name TEXT, salary FLOAT, dept INT)")
        .unwrap();
    sql.execute("CREATE TABLE dept (id INT, name TEXT)")
        .unwrap();
    sql.execute(
        "INSERT INTO emp VALUES (1, 'Jones', 52000.0, 0), (2, 'Smith', 48000.0, 1), \
         (3, 'Johnson', 61000.0, 0), (4, 'Garcia', 55000.0, 2), (5, 'Jacobs', 43000.0, 1)",
    )
    .unwrap();
    sql.execute("INSERT INTO dept VALUES (0, 'engineering'), (1, 'sales'), (2, 'support')")
        .unwrap();

    // 3. The paper's first motivating query:
    //    retrieve (emp.salary) where emp.name = "Jones"
    //    An equality on a column builds its §2 B+-tree; later ones probe it.
    let jones = sql
        .execute("SELECT salary FROM emp WHERE name = 'Jones'")
        .unwrap();
    println!("Jones earns {}", jones.rows[0][0]);

    // 4. emp.name = "J*", as the range ["J", "K").
    let js = sql
        .execute("SELECT name, salary FROM emp WHERE name >= 'J' AND name < 'K'")
        .unwrap();
    println!("\nEmployees whose names begin with J:");
    for row in &js.rows {
        println!("  {} ({})", row[0], row[1]);
    }
    assert_eq!(js.rows.len(), 3);

    // 5. A join, planned by the §4 optimizer and run with a §3 hash join.
    let joined = sql
        .execute("SELECT emp.name, dept.name FROM emp JOIN dept ON emp.dept = dept.id")
        .unwrap();
    println!("\n{}:", joined.columns.join(", "));
    for row in &joined.rows {
        println!("  {}, {}", row[0], row[1]);
    }
    assert_eq!(joined.rows.len(), 5);

    // 6. A transaction: both statements commit together, or neither does.
    sql.execute("BEGIN").unwrap();
    sql.execute("UPDATE emp SET salary = salary + 1000.0 WHERE dept = 1")
        .unwrap();
    sql.execute("DELETE FROM emp WHERE name = 'Garcia'")
        .unwrap();
    sql.execute("COMMIT").unwrap();
    let left = sql.execute("SELECT name FROM emp").unwrap();
    println!("\n{} employees after the transaction", left.rows.len());
    assert_eq!(left.rows.len(), 4);

    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
